package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"kamel/internal/eval"
)

// tokenizerABDoc is the JSON document written by -tokenizer-ab: one
// fixed-vs-adaptive comparison per dataset, each carrying both token spaces'
// vocabulary size, training-data factor, model count, accuracy, and median
// imputation latency.
type tokenizerABDoc struct {
	Generated string                    `json:"generated"`
	Reports   []*eval.TokenizerABReport `json:"reports"`
}

// runTokenizerAB runs the fixed-vs-adaptive tokenizer comparison on both
// canonical datasets, prints the accuracy sweep as a table, and writes the
// structured report to out as JSON.
func runTokenizerAB(out string, runner *eval.Runner) error {
	doc := tokenizerABDoc{Generated: time.Now().UTC().Format(time.RFC3339)}
	var rows []eval.Row
	for _, ds := range []string{"porto-like", "jakarta-like"} {
		rs, rep, err := runner.RunTokenizerAB(ds, nil)
		if err != nil {
			return fmt.Errorf("tokenizer-ab %s: %w", ds, err)
		}
		rows = append(rows, rs...)
		doc.Reports = append(doc.Reports, rep)
	}
	if err := eval.WriteTable(os.Stdout, rows); err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
