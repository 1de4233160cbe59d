package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// Frozen set-up parameters.  The data seed is the porto-like profile's own
// (fixed inside `kamel datagen`); the benchmark's -seed never reaches the
// trained models.
const (
	dataScale   = 1.4 // 420 trips
	trainTrips  = 360 // `kamel train` input of the base repository
	ingestTrips = 20  // the /v1/train batch of the ingest workload
	poolTrips   = 40  // held out: every request is cut from these
	baseSteps   = 400 // BERT steps per model; 400 keeps fallback_share@bulk near 0.3
	miniTrips   = 60  // set-up repetition: trips ...
	miniSteps   = 8   // ... and steps of the scaled-down `kamel train`
)

// env is what one benchmark run works in.
type env struct {
	build    string // <checkout>/.bench_build: binaries, Go cache, base repository
	kamelBin string
	base     string // trained base repository and the data files
	tmp      string // this run's scratch, removed on exit
	tr       *tracer
}

func (e *env) trainFile() string  { return filepath.Join(e.base, "train.jsonl") }
func (e *env) ingestFile() string { return filepath.Join(e.base, "ingest.jsonl") }
func (e *env) poolFile() string   { return filepath.Join(e.base, "pool.jsonl") }
func (e *env) miniFile() string   { return filepath.Join(e.base, "mini.jsonl") }
func (e *env) oneFile() string    { return filepath.Join(e.base, "one.jsonl") }
func (e *env) baseWork() string   { return filepath.Join(e.base, "work") }

// kamel runs the program's CLI, keeping its chatter out of the result line.
func (e *env) kamel(args ...string) error {
	cmd := exec.Command(e.kamelBin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("kamel %v: %w\n%s", args, err, out)
	}
	return nil
}

// ensureBase builds, once per build of the program, what every run shares: the
// generated city's trips split into training / ingest batch / request pool,
// and the model repository `kamel train` makes of the training split.  It is
// a product of the program under test — datagen, tokenizer, training loop and
// model format are all in that binary — so its directory is named after the
// binary's hash (run.sh builds reproducibly: same sources, same hash): a
// checkout switched to another commit trains again instead of measuring the
// new code against the old commit's models, and switching back finds the old
// base still there.  A seed never rebuilds it.
func (e *env) ensureBase() error {
	name, err := baseName(e.kamelBin)
	if err != nil {
		return err
	}
	e.base = filepath.Join(e.build, name)
	if _, err := os.Stat(filepath.Join(e.base, "READY")); err == nil {
		return nil
	}
	fmt.Fprintf(os.Stderr, "benchmark: first run of this build of kamel: generating data and training the base repository (%d steps, a few minutes)\n", baseSteps)
	final := e.base
	e.base = fmt.Sprintf("%s.tmp-%d", final, os.Getpid())
	if err := os.MkdirAll(e.base, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(e.base)
	all := filepath.Join(e.base, "all.jsonl")
	if err := e.kamel("datagen", "-profile", "porto-like", "-scale", fmt.Sprint(dataScale), "-out", all); err != nil {
		return err
	}
	lines, err := readLines(all)
	if err != nil {
		return err
	}
	if len(lines) != trainTrips+ingestTrips+poolTrips {
		return fmt.Errorf("datagen made %d trips, want %d", len(lines), trainTrips+ingestTrips+poolTrips)
	}
	for _, part := range []struct {
		path     string
		from, to int
	}{
		{e.trainFile(), 0, trainTrips},
		{e.miniFile(), 0, miniTrips},
		{e.ingestFile(), trainTrips, trainTrips + ingestTrips},
		{e.poolFile(), trainTrips + ingestTrips, len(lines)},
		{e.oneFile(), len(lines) - 1, len(lines)},
	} {
		if err := writeLines(part.path, lines[part.from:part.to]); err != nil {
			return err
		}
	}
	if err := e.kamel("train", "-work", e.baseWork(), "-in", e.trainFile(), "-steps", fmt.Sprint(baseSteps)); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(e.base, "READY"), nil, 0o644); err != nil {
		return err
	}
	if err := os.Rename(e.base, final); err != nil {
		return err
	}
	e.base = final
	return nil
}

// setupOnce is one scaled-down set-up: `kamel train` on the first miniTrips
// training trips for miniSteps steps, then `kamel impute` of one dense trip
// against the result (process start, store replay, model load, first
// request).  It walks every step a deployment pays before it can serve —
// parse, tokenize, store append, detokenization clusters, BERT training,
// repository commit, reload — at a size that can be repeated in every run.
func (e *env) setupOnce(i int) (train, load time.Duration, err error) {
	work := filepath.Join(e.tmp, fmt.Sprintf("setup-%d", i))
	defer os.RemoveAll(work)
	t0 := time.Now()
	if err := e.kamel("train", "-work", work, "-in", e.miniFile(), "-steps", fmt.Sprint(miniSteps)); err != nil {
		return 0, 0, err
	}
	t1 := time.Now()
	if err := e.kamel("impute", "-work", work, "-in", e.oneFile(), "-out", filepath.Join(work, "dense.jsonl")); err != nil {
		return 0, 0, err
	}
	t2 := time.Now()
	root := e.tr.add("setup", -1, 0, t0, t2)
	e.tr.add("setup.train", -1, root, t0, t1)
	e.tr.add("setup.load", -1, root, t1, t2)
	return t1.Sub(t0), t2.Sub(t1), nil
}

// baseName names the base repository after everything that shapes it: the
// frozen set-up parameters and the hash of the program that builds it.
func baseName(kamelBin string) (string, error) {
	f, err := os.Open(kamelBin)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return fmt.Sprintf("base-x%g-t%d-i%d-p%d-m%d-s%d-%.6x",
		dataScale, trainTrips, ingestTrips, poolTrips, miniTrips, baseSteps, h.Sum(nil)), nil
}

func readLines(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	var out []string
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			out = append(out, sc.Text())
		}
	}
	return out, sc.Err()
}

func writeLines(path string, lines []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, l := range lines {
		w.WriteString(l)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
