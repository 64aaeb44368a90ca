package service

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// requestBodies are the JSON request types the daemon decodes, each as a
// constructor for a fresh value.
var requestBodies = map[string]func() any{
	"synthesize": func() any { return new(SynthesizeRequest) },
	"select":     func() any { return new(SelectRequest) },
	"batch":      func() any { return new(BatchSelectRequest) },
	"artifact":   func() any { return new(FillRequest) },
}

var decodeSeeds = []string{
	`{"target":"riscv","program":"v0 = arg 64\nret v0","vector_seed":7,"emit":"mir"}`,
	`{"target":"riscv","workload":"x264_sad","emit":true}`,
	`{"target":"riscv","programs":["ret"],"vectors":2,"emit":false}`,
	`{"target":"mini","spec":"inst A(rn: reg64) { rd = rn; }","timeout_ms":5,"emit":true}`,
	`{"fingerprint":"ab","target":"riscv","cache_only":true}`,
	`{"key":"cafe"}`,
	`{"target":"riscv"} {"target":"aarch64"}`,
	`{"target":"riscv"}}`,
	`{"target":"riscv","selector":"greedy"}`,
	`{"emit":"elf"}`,
	`{"emit":1}`,
	`{"vector_seed":-1}`,
	`[{"target":"riscv"}]`,
	"{\"target\":\"\xff\xfe\"}",
	strings.Repeat("[", 4096),
	``,
	`null`,
}

// FuzzDecodeRequests holds every request decoder to one contract: no
// input panics, and whatever is accepted is exactly one JSON value whose
// decoded form round-trips — re-encoding and decoding it again is
// accepted and yields the same value.
func FuzzDecodeRequests(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for name, fresh := range requestBodies {
			v := fresh()
			if decodeJSON(bytes.NewReader(body), v) != nil {
				continue
			}
			once, err := json.Marshal(v)
			if err != nil {
				t.Fatalf("%s: accepted %q but cannot re-encode it: %v", name, body, err)
			}
			w := fresh()
			if err := decodeJSON(bytes.NewReader(once), w); err != nil {
				t.Fatalf("%s: accepted %q but rejects its re-encoding %s: %v", name, body, once, err)
			}
			if twice, _ := json.Marshal(w); !bytes.Equal(once, twice) {
				t.Fatalf("%s: %q decodes as %s, then as %s", name, body, once, twice)
			}
		}
	})
}

// The strict decoder rejects what the JSON decoder alone lets through:
// trailing values and garbage after the body, and unknown fields.
func TestDecodeJSONStrict(t *testing.T) {
	for _, body := range []string{
		`{"target":"riscv"} {"target":"aarch64"}`,
		`{"target":"riscv"}}`,
		`{"target":"riscv"} x`,
		`{"target":"riscv","selector":"greedy"}`,
	} {
		var req SelectRequest
		if err := decodeJSON(strings.NewReader(body), &req); err == nil {
			t.Errorf("accepted %q", body)
		}
	}
	var req SelectRequest
	if err := decodeJSON(strings.NewReader("{\"target\":\"riscv\",\"emit\":true}\n\t "), &req); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
	if req.Target != "riscv" || req.Emit != "mir" {
		t.Errorf("decoded %+v", req)
	}
}
