package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// promSeries is one sample line of a Prometheus text exposition.
type promSeries struct {
	name   string
	labels map[string]string
	value  float64
}

// promSnapshot is one scrape of the program's exported counters — the exact
// sums and counts the layer ledger differences, never bucket quantiles.
type promSnapshot []promSeries

// parseProm reads Prometheus text exposition format 0.0.4.  Comment lines
// (HELP, TYPE, the program's exemplar comments) are skipped.
func parseProm(r io.Reader) (promSnapshot, error) {
	var out promSnapshot
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		s, err := parsePromLine(line)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

func parsePromLine(line string) (promSeries, error) {
	s := promSeries{labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(line, "{ "); i < 0 {
		return s, fmt.Errorf("prom: no value in %q", line)
	} else if line[i] == ' ' {
		s.name, rest = line[:i], line[i:]
	} else {
		s.name = line[:i]
		rest = line[i+1:]
		for {
			rest = strings.TrimLeft(rest, ", ")
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			eq := strings.Index(rest, `="`)
			if eq < 0 {
				return s, fmt.Errorf("prom: bad labels in %q", line)
			}
			key := rest[:eq]
			rest = rest[eq+2:]
			var val strings.Builder
			closed := false
			for j := 0; j < len(rest); j++ {
				c := rest[j]
				if c == '\\' && j+1 < len(rest) {
					j++
					if rest[j] == 'n' {
						val.WriteByte('\n')
					} else {
						val.WriteByte(rest[j])
					}
					continue
				}
				if c == '"' {
					rest = rest[j+1:]
					closed = true
					break
				}
				val.WriteByte(c)
			}
			if !closed {
				return s, fmt.Errorf("prom: unterminated label value in %q", line)
			}
			s.labels[key] = val.String()
		}
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return s, fmt.Errorf("prom: no value in %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("prom: value of %q: %w", line, err)
	}
	s.value = v
	return s, nil
}

// sum adds every series of the family whose labels include all of match
// (given as key, value pairs).
func (p promSnapshot) sum(name string, match ...string) float64 {
	var total float64
next:
	for _, s := range p {
		if s.name != name {
			continue
		}
		for i := 0; i+1 < len(match); i += 2 {
			if s.labels[match[i]] != match[i+1] {
				continue next
			}
		}
		total += s.value
	}
	return total
}

// promDelta answers "how much did this counter grow over the window".
type promDelta struct{ from, to promSnapshot }

func (d promDelta) of(name string, match ...string) float64 {
	return d.to.sum(name, match...) - d.from.sum(name, match...)
}

// stage returns the summed seconds and the observation count a pipeline stage
// accumulated over the window.
func (d promDelta) stage(stage string) (seconds, count float64) {
	const fam = "kamel_stage_duration_seconds"
	return d.of(fam+"_sum", "stage", stage), d.of(fam+"_count", "stage", stage)
}
