// Command dusttrain fine-tunes one of the paper's tuple models through the
// fine-tuning recipe (model.TrainRecipe) and saves it for dustsearch and
// dustserve -model. Each output is byte-identical to the model of the same
// name checked in under internal/experiments/models.
//
// Usage:
//
//	dusttrain -out dust-roberta.model             # DUST (RoBERTa), the paper default
//	dusttrain -base bert -out dust-bert.model     # DUST (BERT)
//	dusttrain -base ditto -out ditto.model        # the Ditto baseline simulator
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"dust/internal/model"
)

func main() {
	var (
		base = flag.String("base", "roberta", "model to train: roberta, bert or ditto")
		out  = flag.String("out", "", "output model file (required)")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "dusttrain: -out is required")
		os.Exit(2)
	}
	fmt.Printf("training the recipe's %s model...\n", *base)
	m, err := model.TrainRecipe(*base)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dusttrain:", err)
		os.Exit(2)
	}
	acc := model.Accuracy(m, model.RecipePairs().Test, model.ClassifyThreshold)
	fmt.Printf("%s test accuracy at threshold %.1f: %.3f\n", m.Name(), model.ClassifyThreshold, acc)

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		fmt.Fprintln(os.Stderr, "dusttrain:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, buf.Bytes(), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "dusttrain:", err)
		os.Exit(1)
	}
	fmt.Printf("saved %s\n", *out)
}
