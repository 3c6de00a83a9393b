package audit

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"blinkml/internal/core"
)

// TestRecordLineCompat: a record line in the audit log's on-disk format,
// carrying all twelve option keys, must load with every option intact and
// re-encode to the same bytes — logs already on disk stay replayable.
func TestRecordLineCompat(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "record.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	line := bytes.TrimSuffix(raw, []byte("\n"))

	var keys struct {
		Record struct {
			Options map[string]json.RawMessage `json:"options"`
		} `json:"record"`
	}
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	if n := len(keys.Record.Options); n != 12 {
		t.Fatalf("fixture carries %d option keys, want all 12", n)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "audit.jsonl"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	e, ok := l.Get("m-000042")
	if !ok {
		t.Fatal("record did not load")
	}
	want := core.WireOptions{
		Epsilon:           0.05,
		Delta:             0.01,
		K:                 120,
		Method:            core.InverseGradients,
		Seed:              42,
		InitialSampleSize: 1500,
		MinSampleSize:     900,
		HoldoutFraction:   0.2,
		MaxHoldout:        1200,
		TestFraction:      0.15,
		WarmStart:         true,
		MaxIters:          300,
	}
	if e.Record.Options != want {
		t.Fatalf("options = %+v, want %+v", e.Record.Options, want)
	}
	got, err := json.Marshal(event{Record: &e.Record})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, line) {
		t.Fatalf("re-encoded line differs:\n got  %s\n want %s", got, line)
	}
}
