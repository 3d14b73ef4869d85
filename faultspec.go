package rair

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseFaultSpec parses the command-line fault specification of the rairsim
// binary: a comma-separated key=value list, e.g.
//
//	drop=0.001,corrupt=0.001,leak=0.0005,stall=0.0002,stalllen=20,reconcile=1024
//
// Keys: drop, corrupt, leak (per-event probabilities), stall (per-cycle
// probability), stalllen (cycles), retries, timeout, nack (recovery knobs),
// reconcile (reconciliation period in cycles), seed. Unset keys take the
// FaultSpec defaults.
func ParseFaultSpec(spec string) (*FaultSpec, error) {
	fs := &FaultSpec{}
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("rair: empty fault spec")
	}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("rair: fault spec entry %q is not key=value", kv)
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		switch strings.ToLower(k) {
		case "drop", "corrupt", "leak", "stall":
			p, err := strconv.ParseFloat(v, 64)
			if err != nil || p < 0 || p > 1 {
				return nil, fmt.Errorf("rair: fault spec %s=%q is not a probability in [0,1]", k, v)
			}
			switch strings.ToLower(k) {
			case "drop":
				fs.DropProb = p
			case "corrupt":
				fs.CorruptProb = p
			case "leak":
				fs.CreditLeakProb = p
			case "stall":
				fs.StallProb = p
			}
		case "stalllen", "retries", "timeout", "nack":
			i, err := strconv.Atoi(v)
			if err != nil || i < 0 {
				return nil, fmt.Errorf("rair: fault spec %s=%q is not a non-negative integer", k, v)
			}
			switch strings.ToLower(k) {
			case "stalllen":
				fs.StallLen = i
			case "retries":
				fs.MaxRetries = i
			case "timeout":
				fs.DropTimeout = i
			case "nack":
				fs.NackLatency = i
			}
		case "reconcile":
			i, err := strconv.ParseInt(v, 10, 64)
			if err != nil || i < 0 {
				return nil, fmt.Errorf("rair: fault spec reconcile=%q is not a non-negative integer", v)
			}
			fs.ReconcileEvery = i
		case "seed":
			u, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("rair: fault spec seed=%q is not an unsigned integer", v)
			}
			fs.Seed = u
		default:
			return nil, fmt.Errorf("rair: unknown fault spec key %q", k)
		}
	}
	return fs, nil
}
