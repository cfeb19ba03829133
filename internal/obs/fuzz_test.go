package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzReadEvents: ReadEvents must never panic, and every event it
// returns — including the parsed prefix of a torn or corrupt trace —
// must marshal back to JSON. The corpus starts from the checked-in real
// traces: a v2 build, a v2 sweep and a serve span journal, all recorded
// by the commands.
func FuzzReadEvents(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.jsonl"))
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
	f.Add([]byte(`{"seq":1,"t_ms":0,"type":"span","fields":{"dur_us":`)) // torn tail
	f.Add([]byte("{}\n\n{\"seq\":-1}\nnot json\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, _ := ReadEvents(bytes.NewReader(data))
		for i, ev := range events {
			if _, err := json.Marshal(ev); err != nil {
				t.Fatalf("event %d does not marshal back: %v", i, err)
			}
		}
	})
}

// FuzzParseTraceparent: any header either fails to parse, or yields a
// 32-hex trace ID and a 16-hex parent ID, both substrings of the header,
// that format back into a header parsing to the same IDs.
func FuzzParseTraceparent(f *testing.F) {
	f.Add(FormatTraceparent("4bf92f3577b34da6a3ce929d0e0e4736", "00f067aa0ba902b7", true))
	f.Add("00-00000000000000000000000000000000-00f067aa0ba902b7-01")
	f.Add("ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01")
	f.Add("")
	f.Fuzz(func(t *testing.T, h string) {
		traceID, parentID, ok := ParseTraceparent(h)
		if !ok {
			return
		}
		if len(traceID) != 32 || len(parentID) != 16 || !strings.Contains(h, traceID) || !strings.Contains(h, parentID) {
			t.Fatalf("%q parsed to trace %q, parent %q", h, traceID, parentID)
		}
		t2, p2, ok := ParseTraceparent(FormatTraceparent(traceID, parentID, false))
		if !ok || t2 != traceID || p2 != parentID {
			t.Fatalf("%q does not round-trip: %q %q %v", h, t2, p2, ok)
		}
	})
}
