// Finetune: trains the paper's DUST tuple-embedding model through the
// fine-tuning recipe and compares its unionability classification accuracy
// against the pre-trained baselines on the recipe's test split (the paper's
// Fig. 6 in miniature).
package main

import (
	"fmt"
	"log"

	"dust/internal/embed"
	"dust/internal/model"
)

func main() {
	ds := model.RecipePairs()
	fmt.Printf("recipe pairs: %d train / %d val / %d test\n\n", len(ds.Train), len(ds.Val), len(ds.Test))

	fmt.Println("fine-tuning DUST (RoBERTa base)...")
	m, err := model.TrainRecipe("roberta")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-14s %s\n", "model", "accuracy @ 0.7 cosine distance")
	for _, enc := range []model.TupleEncoder{
		embed.NewBERT(), embed.NewRoBERTa(), embed.NewSBERT(), m,
	} {
		fmt.Printf("%-14s %.3f\n", enc.Name(), model.Accuracy(enc, ds.Test, model.ClassifyThreshold))
	}
	fmt.Println("\npre-trained models sit near the coin toss; fine-tuning is what")
	fmt.Println("teaches the embedding space tuple unionability (paper §4, Fig. 6).")
}
