package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pestrie/internal/core"
)

// TestStatusParity runs the request-rejection table against a Server and
// a Coordinator: both answer through the one HTTP surface, so malformed
// JSON, an over-long batch and an over-long body must get the same status
// from either, before any backend is resolved or shard is asked.
func TestStatusParity(t *testing.T) {
	const maxBatch = 4
	ix := testIndex(t, testPM(15, 40, 10, 150))
	single := New(Options{MaxBatch: maxBatch})
	if err := single.AddIndex("default", ix); err != nil {
		t.Fatal(err)
	}
	singleTS := httptest.NewServer(single.Handler())
	defer singleTS.Close()
	_, coordTS, _ := startTestTier(t, 2, map[string]*core.Index{"default": ix}, CoordOptions{MaxBatch: maxBatch})

	fiveQueries := `{"queries":[` + strings.TrimSuffix(strings.Repeat(`{"op":"isalias","p":0,"q":1},`, maxBatch+1), ",") + `]}`
	hugeName := strings.Repeat("x", 64<<10)
	for _, tc := range []struct {
		name, path, body string
		status           int
	}{
		{"malformed batch", "/batch", `{"queries":[{"op":`, http.StatusBadRequest},
		{"malformed query", "/query", `{"op":"isalias","p":`, http.StatusBadRequest},
		{"batch type error", "/batch", `{"queries":{}}`, http.StatusBadRequest},
		{"oversized batch", "/batch", fiveQueries, http.StatusRequestEntityTooLarge},
		{"oversized batch body", "/batch", `{"backend":"` + hugeName + `","queries":[]}`, http.StatusRequestEntityTooLarge},
		{"oversized query body", "/query", `{"backend":"` + hugeName + `","op":"isalias"}`, http.StatusRequestEntityTooLarge},
		{"healthy batch", "/batch", `{"queries":[{"op":"isalias","p":0,"q":1}]}`, http.StatusOK},
	} {
		for tier, url := range map[string]string{"server": singleTS.URL, "coordinator": coordTS.URL} {
			status, body := postRawBody(t, url+tc.path, []byte(tc.body))
			if status != tc.status {
				t.Errorf("%s via %s: status %d, want %d (%s)", tc.name, tier, status, tc.status, body)
			}
			if status != http.StatusOK && !strings.Contains(string(body), `"error"`) {
				t.Errorf("%s via %s: error reply without an error field: %s", tc.name, tier, body)
			}
		}
	}
}
