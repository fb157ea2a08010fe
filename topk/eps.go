package topk

import "topkmon/internal/eps"

// Epsilon is the approximation error ε ∈ [0, 1) as an exact rational p/q.
// All correctness predicates are decided by integer cross-multiplication,
// so there are no floating-point corner cases. The zero value is ε = 0,
// the exact (non-approximate) problem; [Zero] names it.
type Epsilon struct {
	e eps.Eps
}

// Zero is ε = 0: the exact Top-k-Position problem (which assumes pairwise
// distinct values — see [Exact]).
var Zero = Epsilon{e: eps.Zero}

// NewEpsilon returns ε = num/den after validating 0 ≤ num < den ≤ 2^20.
func NewEpsilon(num, den int64) (Epsilon, error) {
	e, err := eps.New(num, den)
	if err != nil {
		return Epsilon{}, err
	}
	return Epsilon{e: e}, nil
}

// MustEpsilon is NewEpsilon but panics on invalid input; for constants.
func MustEpsilon(num, den int64) Epsilon {
	e, err := NewEpsilon(num, den)
	if err != nil {
		panic(err)
	}
	return e
}

// WrapEps adapts an internal eps.Eps. It is harness scaffolding for the
// module's own internal/sim and internal/exp packages: the parameter type
// lives under internal/, so code outside this module cannot call it.
func WrapEps(e eps.Eps) Epsilon { return Epsilon{e: e} }

// String renders ε as "p/q".
func (e Epsilon) String() string { return e.e.String() }

// IsZero reports whether ε = 0.
func (e Epsilon) IsZero() bool { return e.e.IsZero() }

// MaxValue is the largest value a node may push: the exact ε-arithmetic
// bounds the observation domain so every predicate stays within int64.
const MaxValue int64 = eps.MaxValue
