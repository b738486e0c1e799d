package service

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"wmsn/internal/scenario"
)

// FuzzRunRequest feeds arbitrary bytes through the submit handler's strict
// decode and expand with the default limits. Refusing a body is always
// fine; a panic is not, and neither is an accepted request that breaks a
// bound expand promises: the run count, nodes and horizon per run, the
// wall-clock deadline, the heartbeat interval and the series bucket count.
func FuzzRunRequest(f *testing.F) {
	for _, tc := range invalidRequests {
		f.Add([]byte(tc.body))
	}
	f.Add([]byte(quickBody))
	f.Add([]byte(`{"run":{"protocol":"secmlr","num_sensors":80,"num_gateways":2,"run_for_s":60},"seeds":2,"progress_s":0.05}`))
	f.Add([]byte(`{"run":{"protocol":"spr","num_sensors":100,"num_gateways":3,"run_for_s":60,` +
		`"faults":[{"kind":"kill_gateway","at_s":20,"gateway":0}]},"trace":true,"series_s":5,"deadline_s":30}`))
	f.Add([]byte(`{"runs":[{"protocol":"mlr","link_retries":4,"loss_rate":0.2},{"protocol":"leach"}],"workers":2,"sample_s":5}`))

	l := Limits{}.withDefaults()
	f.Fuzz(func(t *testing.T, body []byte) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields() // as handleSubmit decodes
		var req RunRequest
		if dec.Decode(&req) != nil {
			return
		}
		o, err := req.expand(l)
		if err != nil {
			return
		}
		if n := len(o.cfgs); n == 0 || n > l.MaxRunsPerJob {
			t.Fatalf("accepted %d runs, limit %d", n, l.MaxRunsPerJob)
		}
		for i, cfg := range o.cfgs {
			full := scenario.Defaults(cfg)
			if full.NumSensors < 0 || full.NumGateways < 0 || full.NumSensors > l.MaxNodes-full.NumGateways {
				t.Fatalf("run %d: accepted %d sensors and %d gateways, limit %d nodes", i, full.NumSensors, full.NumGateways, l.MaxNodes)
			}
			if full.RunFor <= 0 || full.RunFor > l.MaxHorizon {
				t.Fatalf("run %d: accepted horizon %v, limit %v", i, full.RunFor, l.MaxHorizon)
			}
			if o.series != 0 && (o.series < 0 || full.RunFor/o.series > maxSeriesBuckets) {
				t.Fatalf("run %d: accepted %v series buckets over %v", i, o.series, full.RunFor)
			}
		}
		if o.workers < 1 || o.workers > l.MaxWorkersPerJob {
			t.Fatalf("accepted %d workers, limit %d", o.workers, l.MaxWorkersPerJob)
		}
		if o.deadline <= 0 || o.deadline > l.MaxDeadline {
			t.Fatalf("accepted deadline %v, limit %v", o.deadline, l.MaxDeadline)
		}
		if o.progress != 0 && (o.progress < time.Duration(minProgressS*float64(time.Second)) || o.progress > l.MaxDeadline) {
			t.Fatalf("accepted heartbeat every %v", o.progress)
		}
	})
}
