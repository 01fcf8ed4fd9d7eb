package server

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pestrie/internal/core"
)

// TestStatusParity runs the request-rejection table against a Server and
// a Coordinator: both answer through the one HTTP surface, so malformed
// JSON, an over-long batch and an over-long body must get the same status
// from either, before any backend is resolved or shard is asked. An
// over-long batch is refused as soon as its extra query begins, whatever
// follows it.
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
		{"oversized batch then garbage", "/batch", strings.TrimSuffix(fiveQueries, "]}") + `,!garbage`, http.StatusRequestEntityTooLarge},
		{"oversized batch before backend", "/batch", strings.TrimSuffix(fiveQueries, "}") + `,"backend":"default"}`, http.StatusRequestEntityTooLarge},
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

// TestBatchIsNotAnOp sends the name of the batch counters as a query op
// through both tiers: it must be refused as an unknown op — never answered
// with an empty result a coordinator would cache — and must not move the
// batch counters.
func TestBatchIsNotAnOp(t *testing.T) {
	ix := testIndex(t, testPM(15, 40, 10, 150))
	single := New(Options{})
	if err := single.AddIndex("default", ix); err != nil {
		t.Fatal(err)
	}
	singleTS := httptest.NewServer(single.Handler())
	defer singleTS.Close()
	coord, coordTS, _ := startTestTier(t, 2, map[string]*core.Index{"default": ix}, CoordOptions{})

	const unknown = `{"error":"unknown op \"batch\""}` + "\n"
	for tier, url := range map[string]string{"server": singleTS.URL, "coordinator": coordTS.URL} {
		status, body := postRawBody(t, url+"/query", []byte(`{"op":"batch","p":0}`))
		if status != http.StatusBadRequest || string(body) != unknown {
			t.Errorf("/query via %s: %d %s, want 400 %s", tier, status, body, unknown)
		}
		for pass := 0; pass < 2; pass++ {
			status, body = postRawBody(t, url+"/batch", []byte(`{"queries":[{"op":"batch"}]}`))
			if want := `{"results":[` + strings.TrimSuffix(unknown, "\n") + `]`; status != http.StatusOK || !strings.HasPrefix(string(body), want) {
				t.Errorf("/batch via %s, pass %d: %d %s, want 200 %s...", tier, pass, status, body, want)
			}
		}
	}
	if puts := coord.Stats().Cache.Puts; puts != 0 {
		t.Errorf("coordinator cached %d answers to an unknown op", puts)
	}
	if got := single.Stats().Backends["default"]["batch"]; got.Count != 2 || got.Latency.Count != 2 {
		t.Errorf("two batches counted as %d (latency count %d)", got.Count, got.Latency.Count)
	}
}

// serveOn runs s.Serve on a loopback listener until the test ends.
func serveOn(t *testing.T, s *Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != http.ErrServerClosed {
			t.Errorf("Serve returned %v", err)
		}
	})
	return l.Addr().String()
}

// TestServeDropsSlowBody stalls a request body halfway: the connection
// must be answered and closed once the request timeout has passed, not
// held open for as long as the client likes.
func TestServeDropsSlowBody(t *testing.T) {
	const timeout = 200 * time.Millisecond
	s := New(Options{RequestTimeout: timeout})
	if err := s.AddIndex("default", testIndex(t, testPM(3, 40, 10, 150))); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", serveOn(t, s))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "POST /batch HTTP/1.1\r\nHost: x\r\nContent-Length: 1000\r\n\r\n{\"queries\":["); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(start.Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	reply, err := io.ReadAll(conn) // until the server closes the connection
	if err != nil {
		t.Fatalf("server held the stalled connection: %v (read %q)", err, reply)
	}
	if took := time.Since(start); took > timeout+2*time.Second {
		t.Fatalf("stalled body dropped after %v, request timeout %v", took, timeout)
	}
	if !strings.HasPrefix(string(reply), "HTTP/1.1 400") {
		t.Fatalf("stalled body answered %q, want a 400", reply)
	}
}

// TestServeProfileOutlivesDeadlines collects a CPU profile that runs
// longer than every connection deadline Serve derives from the request
// timeout: the pprof endpoints are exempt from them.
func TestServeProfileOutlivesDeadlines(t *testing.T) {
	s := New(Options{RequestTimeout: 100 * time.Millisecond, EnablePprof: true})
	resp, err := http.Get("http://" + serveOn(t, s) + "/debug/pprof/profile?seconds=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("profile: status %d, %d bytes, err %v", resp.StatusCode, len(body), err)
	}
}
