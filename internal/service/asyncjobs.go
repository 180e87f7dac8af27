package service

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/search"
)

// This file is the async half of the service: POST /v1/jobs admits
// long-running work — whole experiment sweeps, single experiments, the
// long games — into the bounded job engine (429 on queue overflow),
// GET /v1/jobs lists jobs in admission order behind an opaque cursor,
// GET /v1/jobs/{id} serves progress and the TTL'd result, and DELETE
// /v1/jobs/{id} cancels whether the job is still queued or already
// running (the job's context reaches every search engine). A submit
// may carry an Idempotency-Key header: a retry with the same key —
// concurrent, later, or on the other side of a crash or drain/restart
// — answers 200 with the original job instead of 202 with a duplicate.
//
// When the server runs with a journal, the validated request is
// re-marshaled and journaled as the job's spec; after a crash the
// engine replays it through rehydrateJob — the same buildJob catalog
// validation as a live submission — so interrupted jobs re-run from
// scratch with their original ids.

// JobNames lists the submittable job kinds.
func JobNames() []string { return []string{"experiment", "game", "sweep"} }

// SweepResult is the result payload of a sweep/experiment job: one
// line per experiment plus the overall verdict.
type SweepResult struct {
	OK          bool        `json:"ok"`
	Experiments []SweepLine `json:"experiments"`
}

// SweepLine summarizes one experiment of a sweep job.
type SweepLine struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	OK    bool   `json:"ok"`
	Rows  int    `json:"rows"`
}

func sweepLine(id string, rep *experiments.Report) SweepLine {
	return SweepLine{ID: id, Title: rep.Title, OK: rep.OK(), Rows: len(rep.Rows)}
}

// buildJob validates the request and returns the job body to submit.
// Validation errors surface here as ErrBadRequest/ErrUnknownName — the
// job is never admitted, so bogus submissions cannot occupy queue
// slots (the same front-door discipline as the cache).
func (s *Server) buildJob(req *Request) (jobs.Func, error) {
	workers := s.budget
	if req.Workers > 0 && req.Workers < s.budget {
		workers = req.Workers
	}
	switch req.Job {
	case "sweep":
		return func(ctx context.Context, p *jobs.Progress) (any, error) {
			specs := experiments.Index()
			p.SetTotal(int64(len(specs)))
			o := search.Options{Workers: workers, Ctx: ctx}
			res := SweepResult{OK: true}
			for _, spec := range specs {
				// Experiments run in index order and a cancelled job
				// stops between them. Inside an experiment, the instance
				// sweeps poll o.Ctx before each instance and count the
				// unchecked rest as failed, and the games abort through
				// o.Ctx too; the ignoreEngine experiments (cook-levin,
				// examples and the rest) cancel only between
				// experiments.
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				rep := spec.Run(o)
				p.Add(1)
				res.Experiments = append(res.Experiments, sweepLine(spec.ID, rep))
				res.OK = res.OK && rep.OK()
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return res, nil
		}, nil
	case "experiment":
		spec, ok := experiments.FindSpec(req.Name)
		if !ok {
			return nil, fmt.Errorf("%w: experiment %q", ErrUnknownName, req.Name)
		}
		return func(ctx context.Context, p *jobs.Progress) (any, error) {
			p.SetTotal(1)
			rep := spec.Run(search.Options{Workers: workers, Ctx: ctx})
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			p.Add(1)
			return SweepResult{OK: rep.OK(), Experiments: []SweepLine{sweepLine(spec.ID, rep)}}, nil
		}, nil
	case "game":
		if !HasGame(req.Game) {
			return nil, fmt.Errorf("%w: game %q", ErrUnknownName, req.Game)
		}
		game := req.Game
		return func(ctx context.Context, p *jobs.Progress) (any, error) {
			p.SetTotal(1)
			results, err := Game(game, search.Options{Workers: workers, Ctx: ctx})
			if err != nil {
				return nil, err
			}
			p.Add(1)
			return GameResponse{Op: "game", Name: game, Workers: workers, Results: results}, nil
		}, nil
	case "":
		return nil, fmt.Errorf("%w: missing job kind", ErrBadRequest)
	default:
		return nil, fmt.Errorf("%w: job kind %q", ErrUnknownName, req.Job)
	}
}

// rehydrateJob rebuilds a journaled job body after a crash: the spec
// is the canonical re-marshal of the originally validated request, so
// it goes back through DecodeRequest and buildJob — catalog changes
// between restarts surface as a durable failed job, not a panic.
func (s *Server) rehydrateJob(kind string, spec json.RawMessage) (jobs.Func, error) {
	if len(spec) == 0 {
		return nil, errors.New("empty job spec")
	}
	req, err := DecodeRequest(bytes.NewReader(spec))
	if err != nil {
		return nil, err
	}
	if req.Job != kind {
		return nil, fmt.Errorf("journaled kind %q does not match spec kind %q", kind, req.Job)
	}
	return s.buildJob(req)
}

// maxIdemKeyBytes bounds one Idempotency-Key header value; the key is
// journaled inside every submit record, so it must stay small.
const maxIdemKeyBytes = 128

// IdempotencyKey extracts and validates the Idempotency-Key header:
// absent means no key (""), present means exactly one value of 1 to
// 128 visible-ASCII bytes. The alphabet is pinned hard — no spaces, no
// control bytes, nothing multi-byte — because the key is persisted in
// JSON journal records and echoed in responses, and a permissive
// parser here would make every replay a parsing liability. Exported
// for the fuzz harness.
func IdempotencyKey(h http.Header) (string, error) {
	vals := h.Values("Idempotency-Key")
	switch len(vals) {
	case 0:
		return "", nil
	case 1:
		return ValidateIdemKey(vals[0])
	default:
		return "", fmt.Errorf("%w: repeated Idempotency-Key header", ErrBadRequest)
	}
}

// ValidateIdemKey enforces the key contract on one header value.
func ValidateIdemKey(key string) (string, error) {
	if key == "" {
		return "", fmt.Errorf("%w: empty Idempotency-Key", ErrBadRequest)
	}
	if len(key) > maxIdemKeyBytes {
		return "", fmt.Errorf("%w: Idempotency-Key exceeds %d bytes", ErrBadRequest, maxIdemKeyBytes)
	}
	for i := 0; i < len(key); i++ {
		if key[i] <= 0x20 || key[i] >= 0x7f {
			return "", fmt.Errorf("%w: Idempotency-Key byte %d is not visible ASCII", ErrBadRequest, i)
		}
	}
	return key, nil
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	key, err := IdempotencyKey(r.Header)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	// No shedDraining check here: a draining engine still answers
	// idempotent duplicates of keys it already admitted — that is the
	// whole point of the key during a drain/restart — so the drain
	// rejection happens inside SubmitIdem, after the dedup lookup.
	req, err := DecodeRequest(r.Body)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	fn, err := s.buildJob(req)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	// The spec journaled for crash recovery is the re-marshal of the
	// decoded request — canonical, bounded, and guaranteed to decode.
	spec, err := json.Marshal(req)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	st, dup, err := s.jobs.SubmitIdem(r.Context(), req.Job, key, spec, fn)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	if dup {
		// The original admission's outcome, replayed: 200, not 202 — the
		// client can tell a dedup hit from a fresh admission.
		writeJSON(w, http.StatusOK, st)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

// cursorPrefix versions the opaque pagination token so its encoding
// can change without breaking old clients loudly.
const cursorPrefix = "v1:"

// encodeCursor wraps the last-seen admission sequence in an opaque
// token. Clients must treat it as a black box.
func encodeCursor(seq int64) string {
	return base64.RawURLEncoding.EncodeToString([]byte(cursorPrefix + strconv.FormatInt(seq, 10)))
}

// decodeCursor unwraps a pagination token; every malformation is a
// client error.
func decodeCursor(token string) (int64, error) {
	raw, err := base64.RawURLEncoding.DecodeString(token)
	if err != nil {
		return 0, fmt.Errorf("%w: bad cursor", ErrBadRequest)
	}
	rest, ok := strings.CutPrefix(string(raw), cursorPrefix)
	if !ok {
		return 0, fmt.Errorf("%w: bad cursor", ErrBadRequest)
	}
	seq, err := strconv.ParseInt(rest, 10, 64)
	if err != nil || seq < 0 {
		return 0, fmt.Errorf("%w: bad cursor", ErrBadRequest)
	}
	return seq, nil
}

// jobListMaxLimit bounds one page of GET /v1/jobs.
const jobListMaxLimit = 500

// JobListResponse answers GET /v1/jobs: one page of jobs in admission
// order plus the cursor for the next page (absent on the last page).
type JobListResponse struct {
	Jobs       []jobs.Status `json:"jobs"`
	NextCursor string        `json:"next_cursor,omitempty"`
}

// handleJobList serves cursor-paginated job listings: stable admission
// order (by sequence number), an opaque cursor token, and optional
// state filters (?state=done,running). Walking the cursor yields every
// surviving job exactly once even as jobs complete or expire between
// pages — a job's position never changes, it can only disappear.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	q := r.URL.Query()
	after := int64(0)
	if token := q.Get("cursor"); token != "" {
		var err error
		if after, err = decodeCursor(token); err != nil {
			s.fail(w, r, err)
			return
		}
	}
	limit := 50
	if lv := q.Get("limit"); lv != "" {
		n, err := strconv.Atoi(lv)
		if err != nil || n <= 0 || n > jobListMaxLimit {
			s.fail(w, r, fmt.Errorf("%w: limit must be in [1,%d]", ErrBadRequest, jobListMaxLimit))
			return
		}
		limit = n
	}
	var states map[jobs.State]bool
	if sv := q.Get("state"); sv != "" {
		states = make(map[jobs.State]bool)
		for _, name := range strings.Split(sv, ",") {
			st := jobs.State(name)
			if !knownState(st) {
				s.fail(w, r, fmt.Errorf("%w: unknown state %q", ErrBadRequest, name))
				return
			}
			states[st] = true
		}
	}
	items, next, more := s.jobs.Page(after, limit, states)
	resp := JobListResponse{Jobs: items}
	if more {
		resp.NextCursor = encodeCursor(next)
	}
	writeJSON(w, http.StatusOK, resp)
}

func knownState(st jobs.State) bool {
	for _, s := range jobs.States() {
		if s == st {
			return true
		}
	}
	return false
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	st, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		s.fail(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	st, err := s.jobs.Cancel(r.PathValue("id"))
	if err != nil {
		if errors.Is(err, jobs.ErrFinished) {
			// The conflict body carries the terminal state so clients can
			// tell "already done" from "already cancelled".
			s.failures.Add(1)
			writeJSON(w, http.StatusConflict, st)
			return
		}
		s.fail(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}
