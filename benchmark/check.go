package main

import (
	"encoding/json"
	"fmt"
	"math"

	"kamel/internal/geo"
	"kamel/internal/tokenizer"
)

// answer is the program's reply to one request, from either surface.
type answer struct {
	Out      geo.Trajectory
	Segments int
	Failures int
}

// wireAnswer is the /v1/impute response document.
type wireAnswer struct {
	Trajectory *struct {
		ID     string       `json:"id"`
		Points [][3]float64 `json:"points"`
	} `json:"trajectory"`
	Segments int `json:"segments"`
	Failures int `json:"failures"`
}

func decodeAnswer(body []byte) (answer, error) {
	var w wireAnswer
	if err := json.Unmarshal(body, &w); err != nil {
		return answer{}, fmt.Errorf("decoding response: %w", err)
	}
	if w.Trajectory == nil {
		return answer{}, fmt.Errorf("response carries no trajectory: %.120s", body)
	}
	a := answer{Segments: w.Segments, Failures: w.Failures}
	a.Out.ID = w.Trajectory.ID
	a.Out.Points = make([]geo.Point, len(w.Trajectory.Points))
	for i, p := range w.Trajectory.Points {
		a.Out.Points[i] = geo.Point{Lat: p[0], Lng: p[1], T: p[2]}
	}
	return a, nil
}

// checker holds what output correctness is judged against.
type checker struct {
	proj    *geo.Projection
	maxGapM float64
	// maxStepM bounds the distance between consecutive output points.  The
	// search closes a gap once adjacent tokens are within max_gap (never less
	// than one token step), and detokenization may place each point anywhere
	// inside its cell, so two cell radii are added.  Straight-line fallbacks
	// are resampled at max_gap and always satisfy it.
	maxStepM float64
}

func newChecker(proj *geo.Projection, tok tokenizer.Tokenizer, maxGapM float64) *checker {
	return &checker{
		proj:     proj,
		maxGapM:  maxGapM,
		maxStepM: math.Max(maxGapM, 1.001*tok.StepMeters()) + 2*tok.EdgeMeters() + 1,
	}
}

// verify checks one answer: every input point survives, in order, with the
// endpoints in place; timestamps never run backwards; no two consecutive
// output points are further apart than the search allows; and the program
// counted exactly the gaps the generator made.
func (c *checker) verify(req *request, a answer) error {
	in, out := req.In.Points, a.Out.Points
	if len(out) < len(in) {
		return fmt.Errorf("%s: %d points out for %d in", req.ID, len(out), len(in))
	}
	if out[0] != in[0] || out[len(out)-1] != in[len(in)-1] {
		return fmt.Errorf("%s: endpoints moved", req.ID)
	}
	j := 0
	for _, p := range out {
		if j < len(in) && p == in[j] {
			j++
		}
	}
	if j != len(in) {
		return fmt.Errorf("%s: input point %d missing or out of order", req.ID, j)
	}
	for i := 0; i+1 < len(out); i++ {
		if out[i+1].T < out[i].T {
			return fmt.Errorf("%s: time runs backwards at output point %d", req.ID, i+1)
		}
		if d := c.proj.ToXY(out[i]).Dist(c.proj.ToXY(out[i+1])); d > c.maxStepM {
			return fmt.Errorf("%s: output points %d and %d are %.0f m apart (limit %.0f)", req.ID, i, i+1, d, c.maxStepM)
		}
	}
	if a.Segments != req.Gaps {
		return fmt.Errorf("%s: program counted %d gaps, generator made %d", req.ID, a.Segments, req.Gaps)
	}
	if a.Failures < 0 || a.Failures > a.Segments {
		return fmt.Errorf("%s: %d fallbacks for %d gaps", req.ID, a.Failures, a.Segments)
	}
	return nil
}

// sameAnswer is the HTTP/in-process parity test: the wire must neither lose
// nor alter what the engine computed.
func sameAnswer(id string, a, b answer) error {
	if a.Segments != b.Segments || a.Failures != b.Failures {
		return fmt.Errorf("%s: parity: http counted %d/%d, in-process %d/%d", id, a.Segments, a.Failures, b.Segments, b.Failures)
	}
	if len(a.Out.Points) != len(b.Out.Points) {
		return fmt.Errorf("%s: parity: http returned %d points, in-process %d", id, len(a.Out.Points), len(b.Out.Points))
	}
	for i := range a.Out.Points {
		if a.Out.Points[i] != b.Out.Points[i] {
			return fmt.Errorf("%s: parity: point %d differs", id, i)
		}
	}
	return nil
}
