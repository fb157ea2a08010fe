package topk

import (
	"fmt"
	"strconv"
	"strings"
)

// This file holds the textual option parsers shared by every frontend that
// configures a Monitor from strings — cmd/topkmon's flags, cmd/topkd's
// flags, and the HTTP frontend's per-tenant JSON configs (internal/serve).
// Keeping them here means one spelling of each option name across every
// surface.

// ParseEpsilon parses the approximation error ε from its "p/q" fraction
// form (e.g. "1/8"; "0/1" is the exact problem — see [Zero]).
func ParseEpsilon(s string) (Epsilon, error) {
	num, den, ok := strings.Cut(s, "/")
	if !ok {
		return Epsilon{}, fmt.Errorf("topk: eps must be p/q, got %q", s)
	}
	p, err1 := strconv.ParseInt(num, 10, 64)
	q, err2 := strconv.ParseInt(den, 10, 64)
	if err1 != nil || err2 != nil {
		return Epsilon{}, fmt.Errorf("topk: eps must be p/q, got %q", s)
	}
	return NewEpsilon(p, q)
}

// ParseEngine parses an [EngineKind] name: "lockstep" or "live".
func ParseEngine(s string) (EngineKind, error) {
	switch s {
	case "lockstep":
		return Lockstep, nil
	case "live":
		return Live, nil
	default:
		return 0, fmt.Errorf("topk: unknown engine %q (want lockstep|live)", s)
	}
}

// ParseAlgorithm parses an [Algorithm] name. It accepts the canonical
// String() forms plus the CLI's historical aliases ("topk" for
// topk-protocol, "exact-mid" for exact).
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "topk":
		return TopKProtocol, nil
	case "exact-mid":
		return Exact, nil
	}
	for a := range algorithms {
		if algorithms[a].name == s {
			return Algorithm(a), nil
		}
	}
	return 0, fmt.Errorf("topk: unknown algorithm %q", s)
}

// ParseFaultPlan parses the textual fault-injection spec used by the CLIs:
// a comma list of drop=P, dup=P, delay=P, retries=N, and
// crash=NODE@FROM:UNTIL (repeatable), e.g.
//
//	drop=0.1,dup=0.05,crash=2@100:300,crash=5@500:700
//
// An empty spec returns (nil, nil): no fault layer.
func ParseFaultPlan(spec string) (*FaultPlan, error) {
	if spec == "" {
		return nil, nil
	}
	plan := &FaultPlan{}
	for _, tok := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(tok), "=")
		if !ok {
			return nil, fmt.Errorf("topk: faults: token %q is not key=value", tok)
		}
		switch key {
		case "drop", "dup", "delay":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("topk: faults: %s=%q: %v", key, val, err)
			}
			switch key {
			case "drop":
				plan.Drop = p
			case "dup":
				plan.Dup = p
			case "delay":
				plan.Delay = p
			}
		case "retries":
			r, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("topk: faults: retries=%q: %v", val, err)
			}
			plan.Retries = r
		case "crash":
			node, window, ok := strings.Cut(val, "@")
			if !ok {
				return nil, fmt.Errorf("topk: faults: crash=%q is not NODE@FROM:UNTIL", val)
			}
			from, until, ok := strings.Cut(window, ":")
			if !ok {
				return nil, fmt.Errorf("topk: faults: crash=%q is not NODE@FROM:UNTIL", val)
			}
			id, err1 := strconv.Atoi(node)
			lo, err2 := strconv.ParseInt(from, 10, 64)
			hi, err3 := strconv.ParseInt(until, 10, 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("topk: faults: crash=%q is not NODE@FROM:UNTIL", val)
			}
			plan.Crashes = append(plan.Crashes, Crash{Node: id, From: lo, Until: hi})
		default:
			return nil, fmt.Errorf("topk: faults: unknown key %q", key)
		}
	}
	return plan, nil
}
