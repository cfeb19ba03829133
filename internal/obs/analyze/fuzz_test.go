package analyze

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadRun: any trace either fails to read or analyzes — as a build
// trace and as a serve journal — and renders as text and JSON without a
// panic, whatever its spans hold: stages of the wrong type, negative or
// overflowing durations, intervals escaping their span.
func FuzzReadRun(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "testdata", "*.jsonl"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed traces: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"seq":1,"type":"span","fields":{"dur_us":-5,"stages":"nope"}}` + "\n" +
		`{"seq":2,"type":"span","fields":{"dur_us":9.3e18,"stages":[7,{"name":"x","start_us":9.3e18,"dur_us":9.3e18},{"name":"y","start_us":-1,"dur_us":-1e300}]}}` + "\n"))
	f.Add([]byte(`{"seq":1,"type":"build_start","fields":{"schema":1}}` + "\n"))
	f.Add([]byte(`{"seq":1,"type":"row_end","fields":{"row":7,"index":"x"}}` + "\n" + `{"seq":2,"type":"span","fields":{"path":7}}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if run, err := ReadRun(bytes.NewReader(data)); err == nil {
			if err := run.WriteText(io.Discard); err != nil {
				t.Fatal(err)
			}
			if _, err := json.Marshal(run); err != nil {
				t.Fatal(err)
			}
		}
		if run, err := ReadServeRun(bytes.NewReader(data)); err == nil {
			if err := run.WriteText(io.Discard); err != nil {
				t.Fatal(err)
			}
			if _, err := json.Marshal(run); err != nil {
				t.Fatal(err)
			}
		}
	})
}
