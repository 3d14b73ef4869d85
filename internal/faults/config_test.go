package faults

import "testing"

func TestConfigDefaults(t *testing.T) {
	cfg := Config{StallProb: 0.1}.withDefaults()
	if cfg.MaxRetries != DefaultMaxRetries {
		t.Errorf("MaxRetries default = %d, want %d", cfg.MaxRetries, DefaultMaxRetries)
	}
	if cfg.DropTimeout != DefaultDropTimeout {
		t.Errorf("DropTimeout default = %d, want %d", cfg.DropTimeout, DefaultDropTimeout)
	}
	if cfg.NackLatency != DefaultNackLatency {
		t.Errorf("NackLatency default = %d, want %d", cfg.NackLatency, DefaultNackLatency)
	}
	if cfg.StallLen != DefaultStallLen {
		t.Errorf("StallLen default = %d, want %d", cfg.StallLen, DefaultStallLen)
	}
}
