package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans are
// recorded only by the benchmark's own code, around calls into public
// functions; the program itself is not instrumented.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"` // 0 for a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs pay no tracing cost.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs fn inside a span named name under parent and returns the
// span's ID and duration.
func (t *tracer) timed(name string, parent int64, fn func()) (int64, time.Duration) {
	start := time.Now()
	fn()
	end := time.Now()
	id := t.newID()
	if t != nil {
		t.record(span{ID: id, Parent: parent, Name: name, Start: t.at(start), End: t.at(end)})
	}
	return id, end.Sub(start)
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// attachByContainment gives every parentless child the candidate parent
// whose interval contains it, preferring the latest-starting one when
// several overlap. The program does not propagate a request ID from the
// coordinator to its shards, so containment is the only link available.
// It returns how many children found no container.
func attachByContainment(children []span, parents []span) int {
	byStart := append([]span(nil), parents...)
	sort.Slice(byStart, func(i, j int) bool { return byStart[i].Start < byStart[j].Start })
	orphans := 0
	for i := range children {
		c := &children[i]
		// Parents starting after c cannot contain it.
		k := sort.Search(len(byStart), func(j int) bool { return byStart[j].Start > c.Start })
		c.Parent = 0
		for j := k - 1; j >= 0; j-- {
			if byStart[j].End >= c.End {
				c.Parent = byStart[j].ID
				break
			}
		}
		if c.Parent == 0 {
			orphans++
		}
	}
	return orphans
}

// covered returns how much of [lo, hi] the union of the intervals covers.
func covered(lo, hi int64, iv [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(iv))
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var sum, curA, curB int64
	open := false
	for _, x := range clipped {
		if open && x[0] <= curB {
			curB = max(curB, x[1])
			continue
		}
		if open {
			sum += curB - curA
		}
		curA, curB, open = x[0], x[1], true
	}
	if open {
		sum += curB - curA
	}
	return sum
}

// selfTimes maps each span ID to its self time: its duration minus the
// part of its interval that its children cover. A span is first clipped to
// its parent's (clipped) interval, so time a child spends outside its
// parent is not charged inside it. Concurrent siblings each keep their own
// self time, so they can add up to more than their parent.
func selfTimes(spans []span) map[int64]int64 {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	eff := make(map[int64][2]int64, len(spans))
	var clip func(s span) [2]int64
	clip = func(s span) [2]int64 {
		if iv, ok := eff[s.ID]; ok {
			return iv
		}
		iv := [2]int64{s.Start, s.End}
		if p, ok := byID[s.Parent]; ok && s.Parent != 0 {
			piv := clip(p)
			iv = [2]int64{max(iv[0], piv[0]), max(min(iv[1], piv[1]), max(iv[0], piv[0]))}
		}
		eff[s.ID] = iv
		return iv
	}
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], clip(s))
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		iv := clip(s)
		out[s.ID] = iv[1] - iv[0] - covered(iv[0], iv[1], kids[s.ID])
	}
	return out
}

// layerRow is one line of the self-time table.
type layerRow struct {
	Name  string
	Self  float64 // mean self time per root, ms
	Spans int
}

// selfTable aggregates the self time of every span under roots named root,
// per root. The roots' own self time — the part of the end-to-end interval
// no layer span covers — is returned separately as unattributed and is
// never folded into a layer. total is the mean root duration.
func selfTable(spans []span, root string) (rows []layerRow, unattributed, total float64, roots int) {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	rootOf := func(s span) (span, bool) {
		for s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok {
				return span{}, false
			}
			s = p
		}
		return s, s.Name == root
	}
	self := selfTimes(spans)
	agg := make(map[string]*layerRow)
	var unattr, tot int64
	for _, s := range spans {
		r, ok := rootOf(s)
		if !ok {
			continue
		}
		if r.ID == s.ID {
			roots++
			unattr += self[s.ID]
			tot += s.dur()
			continue
		}
		row := agg[s.Name]
		if row == nil {
			row = &layerRow{Name: s.Name}
			agg[s.Name] = row
		}
		row.Self += float64(self[s.ID])
		row.Spans++
	}
	if roots == 0 {
		return nil, 0, 0, 0
	}
	per := float64(roots) * float64(time.Millisecond)
	for _, row := range agg {
		row.Self /= per
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows, float64(unattr) / per, float64(tot) / per, roots
}

// printTable renders a self-time table with its unattributed residual.
func printTable(w io.Writer, title string, rows []layerRow, unattributed, total float64, roots int) {
	fmt.Fprintf(w, "self time per %s (mean of %d, ms):\n", title, roots)
	line := func(name string, v float64, n string) {
		share := 0.0
		if total > 0 {
			share = 100 * v / total
		}
		fmt.Fprintf(w, "  %-28s %12.4f %6.1f%%  %s\n", name, v, share, n)
	}
	for _, r := range rows {
		line(r.Name, r.Self, fmt.Sprintf("spans=%d", r.Spans))
	}
	line("unattributed", unattributed, "")
	fmt.Fprintf(w, "  %s\n  %-28s %12.4f\n", strings.Repeat("-", 50), "total", total)
}
