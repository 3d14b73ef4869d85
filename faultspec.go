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
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("rair: empty fault spec")
	}
	fs := &FaultSpec{}
	probs := map[string]*float64{"drop": &fs.DropProb, "corrupt": &fs.CorruptProb, "leak": &fs.CreditLeakProb, "stall": &fs.StallProb}
	counts := map[string]*int{"stalllen": &fs.StallLen, "retries": &fs.MaxRetries, "timeout": &fs.DropTimeout, "nack": &fs.NackLatency}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("rair: fault spec entry %q is not key=value", kv)
		}
		k, v = strings.ToLower(strings.TrimSpace(k)), strings.TrimSpace(v)
		var err error
		switch {
		case probs[k] != nil:
			p := probs[k]
			if *p, err = strconv.ParseFloat(v, 64); err != nil || !(*p >= 0 && *p <= 1) {
				return nil, fmt.Errorf("rair: fault spec %s=%q is not a probability in [0,1]", k, v)
			}
		case counts[k] != nil:
			n := counts[k]
			if *n, err = strconv.Atoi(v); err != nil || *n < 0 {
				return nil, fmt.Errorf("rair: fault spec %s=%q is not a non-negative integer", k, v)
			}
		case k == "reconcile":
			if fs.ReconcileEvery, err = strconv.ParseInt(v, 10, 64); err != nil || fs.ReconcileEvery < 0 {
				return nil, fmt.Errorf("rair: fault spec reconcile=%q is not a non-negative integer", v)
			}
		case k == "seed":
			if fs.Seed, err = strconv.ParseUint(v, 10, 64); err != nil {
				return nil, fmt.Errorf("rair: fault spec seed=%q is not an unsigned integer", v)
			}
		default:
			return nil, fmt.Errorf("rair: unknown fault spec key %q", k)
		}
	}
	return fs, nil
}
