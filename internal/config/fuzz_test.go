package config

import (
	"strings"
	"testing"
)

// FuzzRead hardens the tool-config parser: arbitrary JSON must yield
// an error or a config that passes validation.
func FuzzRead(f *testing.F) {
	f.Add(`{"workload":"SPECjbb","green":"RE-Batt","strategy":"Hybrid","burst_intensity":12,"burst_duration":"30m","availability":"Med"}`)
	f.Add(`{"workload":"nope"}`)
	f.Add(`{}`)
	f.Add(`{bad`)
	f.Add(`{"workload":"SPECjbb","green":"RE-Batt","strategy":"Hybrid","burst_intensity":999,"burst_duration":"30m","availability":"Med"}`)
	f.Add(`{"workload":"SPECjbb","green":"RE-Batt","strategy":"Hybrid","burst_intensity":12,"burst_duration":"30m","availability":"Med","epoch":"-5m","lead":"-2h"}`)
	f.Fuzz(func(t *testing.T, in string) {
		c, err := Read(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("Read accepted an invalid config: %v", err)
		}
	})
}
