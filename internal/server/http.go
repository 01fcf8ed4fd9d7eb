package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"pestrie/internal/store"
)

// answerer is what a serving tier contributes to the shared HTTP surface:
// resolve backend and answer queries in request order. A Server answers
// with its worker pool, a Coordinator with cache, singleflight and shard
// fan-out. single marks a /query request, which a Server answers inline
// and does not meter as a batch. A returned error means the backend could
// not be resolved at all; per-query failures travel inside the results.
type answerer interface {
	answer(ctx context.Context, backend string, queries []Query, single bool) (BatchResponse, error)
}

// isProfile reports a request for the pprof endpoints, which run for as
// long as the profile they collect.
func isProfile(r *http.Request) bool { return strings.HasPrefix(r.URL.Path, "/debug/pprof/") }

// errUnnamed reports a request without a backend name while several
// backends are catalogued.
var errUnnamed = errors.New("request must name one")

// surface is the one HTTP front of Server and Coordinator: the /query,
// /batch and /healthz handlers, the request deadline, the body and batch
// limits, and the listener lifecycle. Each tier adds only its own routes.
type surface struct {
	a        answerer
	routes   func(*http.ServeMux) // the tier's own endpoints
	timeout  time.Duration
	maxBatch int
	maxBody  int64

	httpMu sync.Mutex
	httpS  *http.Server
}

// newSurface returns the HTTP front for a. The body cap follows from
// maxBatch: a query encodes in ~60 bytes even with maximal IDs, so 256
// per query leaves room for whitespace, and 4KiB covers the envelope.
func newSurface(a answerer, routes func(*http.ServeMux), timeout time.Duration, maxBatch int) *surface {
	return &surface{a: a, routes: routes, timeout: timeout, maxBatch: maxBatch,
		maxBody: 4<<10 + 256*int64(maxBatch)}
}

// Handler returns the HTTP handler for the service.
func (h *surface) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", h.handleQuery)
	mux.HandleFunc("POST /batch", h.handleBatch)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	h.routes(mux)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Profile collection legitimately runs for ?seconds=30; exempt
		// it from the query deadline.
		if isProfile(r) {
			mux.ServeHTTP(w, r)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), h.timeout)
		defer cancel()
		mux.ServeHTTP(w, r.WithContext(ctx))
	})
}

// writeJSON writes the debug and admin payloads and error bodies; query
// answers are written by the codec (codec.go).
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// decode reads a request body of at most maxBody bytes with read. On
// failure it writes the reply itself — 413 for an oversized body or batch,
// 400 for malformed JSON — and returns false.
func (h *surface) decode(w http.ResponseWriter, r *http.Request, read func(*json.Decoder) error) bool {
	err := read(json.NewDecoder(http.MaxBytesReader(w, r.Body, h.maxBody)))
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) || errors.Is(err, errTooMany) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, fmt.Errorf("decoding request: %w", err))
	return false
}

// resolveStatus maps a resolve failure to its HTTP status: names that
// aren't in the catalog are the client's fault (404), a catalogued file
// that fails to decode is the server's (502).
func resolveStatus(err error) int {
	if errors.Is(err, store.ErrUnknown) || errors.Is(err, errUnnamed) {
		return http.StatusNotFound
	}
	return http.StatusBadGateway
}

type queryRequest struct {
	Backend string `json:"backend"`
	Query
}

type batchRequest struct {
	Backend string  `json:"backend"`
	Queries []Query `json:"queries"`
}

// BatchResponse is the reply to POST /batch, from a single server or a
// coordinator. Generation is the version tag of the content the answers
// correspond to (a coordinator omits it when its shards disagree);
// Unanswered counts queries a timed-out batch returned with per-result
// errors instead of answers; Partial names the shards a coordinator could
// not reach. Field order matters: a healthy coordinator reply must be
// byte-identical to a single-process one.
type BatchResponse struct {
	Results    []Result     `json:"results"`
	Generation string       `json:"generation,omitempty"`
	Unanswered int          `json:"unanswered,omitempty"`
	Partial    []ShardError `json:"partial,omitempty"`
}

func (h *surface) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !h.decode(w, r, func(d *json.Decoder) error { return d.Decode(&req) }) {
		return
	}
	resp, err := h.a.answer(r.Context(), req.Backend, []Query{req.Query}, true)
	if err != nil {
		writeError(w, resolveStatus(err), err)
		return
	}
	res := resp.Results[0]
	status := http.StatusOK
	switch {
	case len(resp.Partial) > 0:
		status = http.StatusBadGateway
	case res.Err != "":
		status = http.StatusBadRequest
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// A failed write means the client has gone; there is no one to tell.
	_, _ = w.Write(append(appendResult(nil, res), '\n'))
}

func (h *surface) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !h.decode(w, r, func(d *json.Decoder) error { return readBatch(d, h.maxBatch, &req) }) {
		return
	}
	resp, err := h.a.answer(r.Context(), req.Backend, req.Queries, false)
	if err != nil {
		writeError(w, resolveStatus(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = writeBatch(w, resp) // as in handleQuery
}

// Serve accepts connections on l until Shutdown. It returns
// http.ErrServerClosed after a clean shutdown, like net/http.
//
// Connection deadlines follow from the request timeout t, so a slow or
// stalled client cannot hold a connection: a request's header and body
// must arrive within t of its first byte, its reply must be written within
// 2t of the handler starting (t for the context deadline, t to drain), and
// a keep-alive connection idle for 2t is closed. The reply deadline is set
// per request rather than as http.Server.WriteTimeout, which would also cut
// off CPU profiles that run for ?seconds=N.
func (h *surface) Serve(l net.Listener) error {
	handler := h.Handler()
	hs := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			deadline := time.Time{}
			if !isProfile(r) {
				deadline = time.Now().Add(2 * h.timeout)
			}
			_ = http.NewResponseController(w).SetWriteDeadline(deadline) // supported by every net/http connection
			handler.ServeHTTP(w, r)
		}),
		ReadHeaderTimeout: min(5*time.Second, h.timeout),
		ReadTimeout:       h.timeout,
		IdleTimeout:       2 * h.timeout,
	}
	h.httpMu.Lock()
	h.httpS = hs
	h.httpMu.Unlock()
	return hs.Serve(l)
}

// ListenAndServe listens on addr and serves until Shutdown.
func (h *surface) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return h.Serve(l)
}

// Shutdown gracefully stops the service: the listener closes immediately,
// in-flight requests get until ctx expires to finish.
func (h *surface) Shutdown(ctx context.Context) error {
	h.httpMu.Lock()
	hs := h.httpS
	h.httpMu.Unlock()
	if hs == nil {
		return nil
	}
	return hs.Shutdown(ctx)
}
