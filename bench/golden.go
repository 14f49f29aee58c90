package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"wizgo/internal/engine"
	"wizgo/internal/engines"
	"wizgo/internal/workloads"
)

// golden.json maps "suite/name" to the decimal i64 checksum of every
// suite line item, recorded by `go run ./bench -golden bench/golden.json`
// only where all 8 engines.DifferentialMatrix() configurations agree.
// The benchmark compares results against this file and never against a
// value computed by an engine at run time.
//
//go:embed golden.json
var goldenJSON []byte

func loadGolden() (map[string]int64, error) {
	raw := map[string]string{}
	if err := json.Unmarshal(goldenJSON, &raw); err != nil {
		return nil, fmt.Errorf("bench: golden.json: %w", err)
	}
	out := make(map[string]int64, len(raw))
	for k, s := range raw {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bench: golden.json: %s: %w", k, err)
		}
		out[k] = v
	}
	return out, nil
}

// writeGolden regenerates golden.json. An item on which the
// configurations disagree is an engine bug: it is reported and left out,
// so the benchmark cannot draw it.
func writeGolden(path string) error {
	matrix := engines.DifferentialMatrix()
	out := map[string]string{}
	for _, it := range workloads.All() {
		key := it.Suite + "/" + it.Name
		var first int64
		agree := true
		for i, cfg := range matrix {
			got, err := firstRequest(engine.New(cfg, nil), module{Bytes: it.Bytes})
			sum := int64(got)
			if err != nil {
				return fmt.Errorf("bench: golden %s under %s: %w", key, cfg.Name, err)
			}
			if i == 0 {
				first = sum
			} else if sum != first {
				fmt.Fprintf(os.Stderr, "golden: %s: %s reports %d, %s reports %d; left out\n",
					key, matrix[0].Name, first, cfg.Name, sum)
				agree = false
				break
			}
		}
		if agree {
			out[key] = strconv.FormatInt(first, 10)
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
