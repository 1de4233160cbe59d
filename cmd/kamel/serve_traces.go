package main

import (
	"encoding/json"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"kamel/internal/obs"
)

// This file is the HTTP face of the distributed tracing plane: the retained-
// trace listing (/v1/traces) and the cross-node stitched span tree
// (/v1/traces/{id}), both consumed by the kamel trace CLI subcommand.

// wireTraceSpan is one span inside a hop, offsets relative to the hop start.
type wireTraceSpan struct {
	Name    string     `json:"name"`
	StartMS float64    `json:"start_ms"`
	DurMS   float64    `json:"dur_ms"`
	Attrs   []obs.Attr `json:"attrs,omitempty"`
}

// wireTraceHop is one node's recorded share of a distributed trace.
type wireTraceHop struct {
	SpanID       string          `json:"span_id"`
	ParentSpanID string          `json:"parent_span_id,omitempty"`
	Node         string          `json:"node"`
	Route        string          `json:"route"`
	Status       int             `json:"status"`
	StartUnixMS  int64           `json:"start_unix_ms"`
	DurationMS   float64         `json:"duration_ms"`
	Retained     string          `json:"retained,omitempty"`
	Spans        []wireTraceSpan `json:"spans"`
	Dropped      int             `json:"spans_dropped,omitempty"`
}

// wireTraceDoc is the /v1/traces/{id} document: every hop of one trace, the
// gateway's own plus those stitched in from peers.
type wireTraceDoc struct {
	TraceID string         `json:"trace_id"`
	Hops    []wireTraceHop `json:"hops"`
}

// wireTraceSummary is one /v1/traces listing row.
type wireTraceSummary struct {
	TraceID     string  `json:"trace_id"`
	Node        string  `json:"node"`
	Route       string  `json:"route"`
	Status      int     `json:"status"`
	StartUnixMS int64   `json:"start_unix_ms"`
	DurationMS  float64 `json:"duration_ms"`
	Retained    string  `json:"retained"`
	Spans       int     `json:"spans"`
}

// wireExemplar links a histogram bucket to the trace ID of a recent occupant,
// so a listing reader can jump from a p99 bucket to /v1/traces/{id}.
type wireExemplar struct {
	Metric  string            `json:"metric"`
	Labels  map[string]string `json:"labels,omitempty"`
	LE      string            `json:"le"`
	Value   float64           `json:"value"`
	TraceID string            `json:"trace_id"`
}

// wireTracesResponse is the /v1/traces document.
type wireTracesResponse struct {
	Traces    []wireTraceSummary `json:"traces"`
	Exemplars []wireExemplar     `json:"exemplars,omitempty"`
}

func hopOf(rec obs.TraceRecord) wireTraceHop {
	hop := wireTraceHop{
		SpanID:       rec.SpanID,
		ParentSpanID: rec.ParentSpanID,
		Node:         rec.Node,
		Route:        rec.Route,
		Status:       rec.Status,
		StartUnixMS:  rec.Start.UnixMilli(),
		DurationMS:   float64(rec.Duration.Microseconds()) / 1000,
		Retained:     rec.Retained,
		Spans:        []wireTraceSpan{},
		Dropped:      rec.Dropped,
	}
	for _, sp := range rec.Spans {
		hop.Spans = append(hop.Spans, wireTraceSpan{
			Name:    sp.Name,
			StartMS: float64(sp.Start.Microseconds()) / 1000,
			DurMS:   float64(sp.Dur.Microseconds()) / 1000,
			Attrs:   sp.Attrs,
		})
	}
	return hop
}

// handleTraces lists this node's retained traces, newest first, filtered by
// ?route=, ?status=, ?min-duration= (Go duration), and capped by ?limit=.
// The response also carries the registry's current histogram exemplars, so
// the latency buckets' recent trace IDs are discoverable alongside the list.
func (s *apiServer) handleTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := obs.TraceFilter{Route: q.Get("route")}
	if v := q.Get("status"); v != "" {
		st, err := strconv.Atoi(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, codeBadRequest, "status must be an integer")
			return
		}
		f.Status = st
	}
	if v := q.Get("min-duration"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, codeBadRequest, "min-duration: "+err.Error())
			return
		}
		f.MinDuration = d
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, codeBadRequest, "limit must be a positive integer")
			return
		}
		f.Limit = n
	}
	resp := wireTracesResponse{Traces: []wireTraceSummary{}}
	for _, rec := range s.traces.List(f) {
		resp.Traces = append(resp.Traces, wireTraceSummary{
			TraceID:     rec.TraceID,
			Node:        rec.Node,
			Route:       rec.Route,
			Status:      rec.Status,
			StartUnixMS: rec.Start.UnixMilli(),
			DurationMS:  float64(rec.Duration.Microseconds()) / 1000,
			Retained:    rec.Retained,
			Spans:       len(rec.Spans),
		})
	}
	s.sys.Obs().EachExemplar(func(name string, labels []obs.Label, ex obs.Exemplar) {
		lm := make(map[string]string, len(labels))
		for _, l := range labels {
			lm[l.Key] = l.Value
		}
		resp.Exemplars = append(resp.Exemplars, wireExemplar{
			Metric:  name,
			Labels:  lm,
			LE:      strconv.FormatFloat(ex.LE, 'g', -1, 64),
			Value:   ex.Value,
			TraceID: ex.TraceID,
		})
	})
	writeJSON(w, resp)
}

// handleTraceDetail serves /v1/traces/{id}: this node's recorded hops of the
// trace plus — on a clustered gateway — every peer's, fetched with ?local=1
// so the stitching fan-out terminates after one level.  Hops are returned
// root-first (then by start time); parent links (span_id ↔ parent_span_id)
// carry the tree shape.
func (s *apiServer) handleTraceDetail(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/traces/")
	if id == "" || strings.ContainsRune(id, '/') {
		writeError(w, http.StatusNotFound, codeNotFound, "no route "+r.URL.Path)
		return
	}
	doc := wireTraceDoc{TraceID: id, Hops: []wireTraceHop{}}
	seen := map[string]bool{}
	for _, rec := range s.traces.Find(id) {
		doc.Hops = append(doc.Hops, hopOf(rec))
		seen[rec.SpanID] = true
	}
	localOnly := r.URL.Query().Get("local") == "1"
	if rt := s.opts.router; rt != nil && !localOnly && !isForwarded(r) {
		for _, peerID := range rt.PeerIDs() {
			res, err := rt.Get(r.Context(), peerID, "/v1/traces/"+url.PathEscape(id)+"?local=1")
			if err != nil || res.Status != http.StatusOK {
				continue // a down peer just contributes no hops
			}
			var peerDoc wireTraceDoc
			if json.Unmarshal(res.Body, &peerDoc) != nil {
				continue
			}
			for _, hop := range peerDoc.Hops {
				if !seen[hop.SpanID] {
					seen[hop.SpanID] = true
					doc.Hops = append(doc.Hops, hop)
				}
			}
		}
	}
	if len(doc.Hops) == 0 {
		writeError(w, http.StatusNotFound, codeNotFound,
			"trace "+id+" not found (expired from the store, or never retained)")
		return
	}
	sort.SliceStable(doc.Hops, func(i, j int) bool {
		ri, rj := doc.Hops[i].ParentSpanID == "", doc.Hops[j].ParentSpanID == ""
		if ri != rj {
			return ri // the root hop leads
		}
		return doc.Hops[i].StartUnixMS < doc.Hops[j].StartUnixMS
	})
	writeJSON(w, doc)
}
