package serve

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzJobSpec feeds arbitrary submit bodies to the service edge: the spec
// decoder, then resolve. Neither may panic, whatever the bytes. A spec that
// resolves must be within the service's bounds, and it must be a fixed
// point: the normalised spec a job's status echoes back resolves to the
// same echoed spec, workloads, cores and cell count when submitted again.
func FuzzJobSpec(f *testing.F) {
	srv, err := newServer(Config{Journal: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })
	for _, seed := range []string{
		`{}`,
		`{"scale":"quick","sweep":true,"workers":4}`,
		`{"type":"grid","scale":"full","benchmarks":["crc","act"],"cores":["big","small"],"shards":3}`,
		`{"type":"chaos","benchmarks":["bitcnt"],"cores":["small"],"seeds":2,"rates":[0.01,1]}`,
		`{"type":"chaos","shards":2}`,
		`{"type":"fuzz"}`,
		`{"scale":"huge"}`,
		`{"workers":-1}`,
		`{"shards":65}`,
		`{"type":"chaos","seeds":-3}`,
		`{"type":"chaos","rates":[1.5]}`,
		`{"type":"chaos","seeds":1000000000}`,
		`{"benchmarks":["nope"]}`,
		`{"benchmarks":[],"rates":[]}`,
		`{"cores":["tiny"]}`,
		`{"unknown":1}`,
		`{"scale":"quick"} trailing`,
		`[`,
		``,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeSpec(bytes.NewReader(body))
		if err != nil {
			return
		}
		r, err := srv.resolve(spec)
		if err != nil {
			return
		}
		switch {
		case r.spec.Type != "grid" && r.spec.Type != "chaos":
			t.Fatalf("resolved type %q", r.spec.Type)
		case r.spec.Scale != "quick" && r.spec.Scale != "full":
			t.Fatalf("resolved scale %q", r.spec.Scale)
		case len(r.benchmarks) == 0 || len(r.cores) == 0:
			t.Fatalf("resolved %d benchmarks on %d cores", len(r.benchmarks), len(r.cores))
		case r.cells < 1 || r.cells > maxJobCells:
			t.Fatalf("resolved %d cells, want 1..%d", r.cells, maxJobCells)
		case r.spec.Workers < 0:
			t.Fatalf("resolved workers %d", r.spec.Workers)
		}
		if r.spec.Type == "chaos" {
			if r.spec.Seeds < 1 || len(r.spec.Rates) == 0 {
				t.Fatalf("resolved chaos job with %d seeds and %d rates", r.spec.Seeds, len(r.spec.Rates))
			}
			for _, rate := range r.spec.Rates {
				if !(rate >= 0 && rate <= 1) {
					t.Fatalf("resolved fault rate %g", rate)
				}
			}
		}

		echoed, err := json.Marshal(r.spec)
		if err != nil {
			t.Fatal(err)
		}
		spec2, err := decodeSpec(bytes.NewReader(echoed))
		if err != nil {
			t.Fatalf("normalised spec %s does not decode: %v", echoed, err)
		}
		r2, err := srv.resolve(spec2)
		if err != nil {
			t.Fatalf("normalised spec %s does not resolve: %v", echoed, err)
		}
		if again, _ := json.Marshal(r2.spec); !bytes.Equal(again, echoed) || r2.cells != r.cells ||
			!reflect.DeepEqual(r2.cores, r.cores) || len(r2.benchmarks) != len(r.benchmarks) {
			t.Fatalf("normalised spec %s resolves differently", echoed)
		}
		for i, b := range r.benchmarks {
			if r2.benchmarks[i].Prog != b.Prog {
				t.Fatalf("normalised spec %s resolves workload %d to %s, want %s", echoed, i, r2.benchmarks[i].Name, b.Name)
			}
		}
	})
}
