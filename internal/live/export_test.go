package live

// Dispatches names the two executors of a call for the suites that must
// hold under both, this package's and its external tests'. The default
// grain runs every call of a conformance-sized engine on the caller;
// grain 0 hands every call to the worker goroutines.
var Dispatches = []struct {
	Suffix string
	Opts   []Option
}{
	{"", nil},
	{"/workers", []Option{WithGrain(0)}},
}
