package service

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"github.com/nice-go/nice/internal/core"
)

// job is one scheduled check: its status document, and while anyone can
// still be following it, its result stream — a history of NDJSON lines
// guarded by mu, each event marshalled once. Every subscriber copies
// bytes by cursor, so a slow client never blocks the search (appends
// don't wait on anyone), no attached client misses an event, and the
// engine's exactly-once Final progress snapshot arrives exactly once
// per client: it is one line of the history.
//
// The history ends with the job. Once the job is terminal and its last
// subscriber has left, seal releases the lines, and with them the
// violation bodies; what stays does not grow with the search: the
// status and Final events, the result's totals and its artifact ids. A
// later reader gets the bodies back from the trace artifacts
// (job.sealedEvents). A server without an artifact store has nothing to
// re-read from, so it is itself a subscriber (hold) of its keepBodies
// most recently finished jobs.
type job struct {
	srv *Server

	mu sync.Mutex
	// st is the job's status document. ID, Tenant and Request never
	// change, nor does Result once set.
	st       JobStatus
	lines    []line                              // nil once sealed
	kept     []Event                             // the status and Final events: what a sealed job replays
	streamed map[*core.Transition]*WireViolation // by the trace each one encoded; nil once terminal
	subs     map[*subscriber]struct{}
	hold     *subscriber // the server's own subscription, without an artifact store
	sealed   bool
	cancel   context.CancelFunc // set while running; also used by DELETE
	canceled bool               // DELETE arrived (maybe before running)
}

// line is one event as every subscriber writes it: the newline-
// terminated JSON, and the event type that labels an SSE frame.
type line struct {
	typ  string
	data []byte
}

// subscriber is one attached stream client: a cursor into the event
// history plus a capacity-1 wakeup channel (a lost wakeup is fine — a
// pending one is already there, and the reader re-checks the history).
type subscriber struct {
	notify chan struct{}
}

func newJob(srv *Server, id, tenant string, req JobRequest) *job {
	j := &job{
		srv:      srv,
		st:       JobStatus{ID: id, Tenant: tenant, Request: req, State: StateQueued, QueuedAt: time.Now()},
		streamed: make(map[*core.Transition]*WireViolation),
		subs:     make(map[*subscriber]struct{}),
	}
	if srv.store == nil {
		j.hold = j.subscribe()
	}
	return j
}

func terminal(state string) bool {
	return state == StateDone || state == StateCanceled || state == StateError
}

// marshalLine renders an event as its stream line.
func marshalLine(ev *Event) line {
	data, err := json.Marshal(ev)
	if err != nil { // nothing an Event holds can fail to marshal
		panic(fmt.Sprintf("service: marshalling a %s event: %v", ev.Type, err))
	}
	return line{typ: ev.Type, data: append(data, '\n')}
}

// append adds one event (stamping Job/Seq), marshalled once, and wakes
// every subscriber. The caller holds mu.
func (j *job) append(ev Event) {
	ev.Job, ev.Seq = j.st.ID, len(j.lines)
	ln := marshalLine(&ev)
	j.lines = append(j.lines, ln)
	j.srv.tel.historyBytes.Set(j.srv.historyBytes.Add(int64(len(ln.data))))
	if ev.Type == "status" || (ev.Type == "progress" && ev.Progress.Final) {
		j.kept = append(j.kept, ev)
	}
	for s := range j.subs {
		select {
		case s.notify <- struct{}{}:
		default:
		}
	}
}

// progress streams one engine snapshot.
func (j *job) progress(p core.Progress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.append(Event{Type: "progress", Progress: encodeProgress(p)})
}

// violation streams one violation, encoding it the only time the job
// will unless the search later shortens its trace: the session streams
// the violation it keeps, trace array and all, which is how wire
// recognises it in the report.
func (j *job) violation(v core.Violation) {
	wv := EncodeViolation(&v)
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(v.Trace) > 0 {
		j.streamed[&v.Trace[0]] = &wv
	}
	j.append(Event{Type: "violation", Violation: &wv})
}

// wire is a report violation in wire form: the body its violation
// event encoded, or a fresh encoding of a trace the search shortened
// after streaming it. The search that streamed is over.
func (j *job) wire(v *core.Violation) WireViolation {
	if len(v.Trace) > 0 && j.streamed[&v.Trace[0]] != nil {
		return *j.streamed[&v.Trace[0]]
	}
	return EncodeViolation(v)
}

// setState transitions the job and appends the status event, or for a
// terminal state the done event (with the result, if any): the last
// line of every stream.
func (j *job) setState(state string, result *JobResult, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.st.State, j.st.Error = state, errMsg
	now := time.Now()
	switch {
	case terminal(state):
		j.st.EndedAt, j.st.Result, j.streamed = &now, result, nil
		j.append(Event{Type: "done", State: state, Result: result})
		j.seal()
	case state == StateRunning:
		j.st.StartedAt = &now
		fallthrough
	default:
		j.append(Event{Type: "status", State: state})
	}
}

// seal releases the history, violation bodies and all, once the job is
// over and nobody is attached. Called with mu held wherever either may
// have just become true.
func (j *job) seal() {
	if j.sealed || len(j.subs) > 0 || !terminal(j.st.State) {
		return
	}
	j.sealed = true
	var held int64
	bodies := 0
	for _, ln := range j.lines {
		held += int64(len(ln.data))
		if ln.typ == "violation" {
			bodies++
		}
	}
	j.lines = nil
	j.srv.tel.historyBytes.Set(j.srv.historyBytes.Add(-held))
	j.srv.tel.sealed.Inc()
	if bodies > 0 && j.srv.store == nil && j.st.Error == "" {
		j.st.Error = fmt.Sprintf("%d violation bodies released: without an artifact store"+
			" the server keeps those of the %d most recently finished jobs", bodies, keepBodies)
	}
}

// subscribe attaches a stream client, which the caller must
// unsubscribe; a sealed job has no history to attach to and returns
// nil.
func (j *job) subscribe() *subscriber {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.sealed {
		return nil
	}
	s := &subscriber{notify: make(chan struct{}, 1)}
	j.subs[s] = struct{}{}
	return s
}

func (j *job) unsubscribe(s *subscriber) {
	j.mu.Lock()
	delete(j.subs, s)
	j.seal()
	j.mu.Unlock()
}

// linesFrom returns the history from cursor on (aliasing the shared
// backing array — lines are append-only while a subscriber is
// attached and never mutated in place).
func (j *job) linesFrom(cursor int) []line {
	j.mu.Lock()
	defer j.mu.Unlock()
	if cursor >= len(j.lines) {
		return nil
	}
	return j.lines[cursor:]
}

// status snapshots the job's wire document.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st
}

// sealedEvents rebuilds a sealed job's stream — status…, violation × n,
// progress{final}, done{result} — re-reading each violation from its
// trace artifact. Whatever the status document's error reports is an
// error event, and so is a violation that cannot be re-read (a missing
// or corrupt artifact, or one that was never written).
func (j *job) sealedEvents() []Event {
	j.mu.Lock()
	st, kept := j.st, j.kept // complete: a terminal job appends nothing
	j.mu.Unlock()
	n := len(kept)
	if n > 0 && kept[n-1].Type == "progress" {
		n-- // the Final snapshot follows the violations
	}
	evs := append([]Event(nil), kept[:n]...)
	if st.Error != "" {
		evs = append(evs, Event{Type: "error", Error: st.Error})
	}
	if st.Result != nil {
		for i, id := range st.Result.TraceArtifacts {
			var ta *TraceArtifact
			data, err := j.srv.store.get(id)
			if err == nil {
				ta, err = DecodeTraceArtifact(data)
			}
			if err != nil {
				evs = append(evs, Event{Type: "error", Error: fmt.Sprintf("violation %d: %v", i, err)})
			} else {
				evs = append(evs, Event{Type: "violation", Violation: &ta.Violation})
			}
		}
	}
	evs = append(append(evs, kept[n:]...), Event{Type: "done", State: st.State, Result: st.Result})
	for i := range evs {
		evs[i].Job, evs[i].Seq = st.ID, i
	}
	return evs
}

// requestCancel marks the job canceled and interrupts its search if
// one is running. Returns false if the job already finished.
func (j *job) requestCancel() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if terminal(j.st.State) {
		return false
	}
	j.canceled = true
	if j.cancel != nil {
		j.cancel()
	}
	return true
}
