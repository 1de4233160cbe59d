package loadgen

import (
	"fmt"
	"io"
)

// WriteTable renders the sweep as the human-readable capacity table:
//
//	offered   sent     ok   shed    err  goodput     p50     p99    p999
//	 50.0/s    500    498      0      0   49.8/s   12.1ms  40.2ms  55.0ms
//
// followed by the capacity line and, when present, the slowest requests of
// the worst step with their trace IDs.
func WriteTable(w io.Writer, res SweepResult) {
	fmt.Fprintf(w, "capacity sweep against %s (p99 target %.0fms)\n", res.Target, res.P99TargetMS)
	fmt.Fprintf(w, "%9s %7s %7s %6s %6s %9s %9s %9s %9s\n",
		"offered", "sent", "ok", "shed", "err", "goodput", "p50", "p99", "p999")
	for _, st := range res.Steps {
		fmt.Fprintf(w, "%8.1f/s %7d %7d %6d %6d %8.1f/s %8.1fms %8.1fms %8.1fms\n",
			st.OfferedRPS, st.Sent, st.OK, st.Shed, st.Errors+st.Timeout,
			st.GoodputRPS, st.P50MS, st.P99MS, st.P999MS)
	}
	if res.CapacityRPS > 0 {
		fmt.Fprintf(w, "capacity: %.1f req/s goodput at %.1f req/s offered (p99 <= %.0fms, no internal errors)\n",
			res.CapacityRPS, res.CapacityOfferedRPS, res.P99TargetMS)
	} else {
		fmt.Fprintln(w, "capacity: no step met the p99 target without internal errors")
	}
	if slow := worstStepSlowest(res); len(slow) > 0 {
		fmt.Fprintln(w, "slowest requests of the worst step (GET /v1/traces/{id} on the target):")
		for _, s := range slow {
			id := s.TraceID
			if id == "" {
				id = "(no trace id)"
			}
			fmt.Fprintf(w, "  %-7s %3d  %8.1fms  %s\n", s.Op, s.Status, s.LatencyMS, id)
		}
	}
}

// worstStepSlowest returns the slowest-request list of the step with the
// highest p99 — the step an operator will want to debug first.
func worstStepSlowest(res SweepResult) []SlowRequest {
	var worst []SlowRequest
	worstP99 := -1.0
	for _, st := range res.Steps {
		if st.P99MS > worstP99 && len(st.Slowest) > 0 {
			worstP99 = st.P99MS
			worst = st.Slowest
		}
	}
	return worst
}
