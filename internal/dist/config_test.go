package dist

import (
	"errors"
	"testing"
	"time"
)

// TestConfigValidation pins the typed rejection of incoherent tuning: a TTL
// at or below the heartbeat interval would flap live workers out of the
// registry between beats.
func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		field string // "" = valid
	}{
		{"zero is valid", Config{Transport: NewLoopback()}, ""},
		{"explicit sane tuning", Config{
			Transport:         NewLoopback(),
			WorkerTTL:         30 * time.Second,
			HeartbeatInterval: 10 * time.Second,
			LeaseTimeout:      time.Minute,
		}, ""},
		{"ttl below heartbeat", Config{
			Transport:         NewLoopback(),
			WorkerTTL:         5 * time.Second,
			HeartbeatInterval: 10 * time.Second,
		}, "WorkerTTL"},
		{"ttl equal to heartbeat", Config{
			Transport:         NewLoopback(),
			WorkerTTL:         10 * time.Second,
			HeartbeatInterval: 10 * time.Second,
		}, "WorkerTTL"},
		{"negative lease timeout", Config{
			Transport:    NewLoopback(),
			LeaseTimeout: -time.Second,
		}, "LeaseTimeout"},
		{"negative strikes", Config{
			Transport:  NewLoopback(),
			MaxStrikes: -1,
		}, "MaxStrikes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.field == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				if _, nerr := New(tc.cfg); nerr != nil {
					t.Fatalf("New() = %v, want nil", nerr)
				}
				return
			}
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("Validate() = %v, want *ConfigError", err)
			}
			if ce.Field != tc.field {
				t.Fatalf("rejected field %q, want %q (%v)", ce.Field, tc.field, err)
			}
			// New applies the same gate.
			if _, nerr := New(tc.cfg); !errors.As(nerr, &ce) {
				t.Fatalf("New() = %v, want *ConfigError", nerr)
			}
		})
	}
}
