package model

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"dust/internal/embed"
)

// TestRecipeRebuildsCheckedInModels trains the recipe's three models and
// holds each to the file checked in under internal/experiments/models byte
// for byte; those files are what every experiment loads. The recipe's
// dust-roberta must then do what Fig. 6 credits it with on the recipe's
// test split: clear 0.75 accuracy and beat the pre-trained BERT and sBERT
// simulators, while BERT sits near the coin toss.
func TestRecipeRebuildsCheckedInModels(t *testing.T) {
	var dustRoberta *Model
	for _, c := range []struct{ base, file string }{
		{"roberta", "dust-roberta"}, {"bert", "dust-bert"}, {"ditto", "ditto"},
	} {
		m, err := TrainRecipe(c.base)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := m.Save(&got); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("..", "experiments", "models", c.file+".model"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("-base %s: %d bytes differ from the checked-in %s.model (%d bytes)", c.base, got.Len(), c.file, len(want))
		}
		if c.base == "roberta" {
			dustRoberta = m
		}
	}

	test := RecipePairs().Test
	dustAcc := Accuracy(dustRoberta, test, ClassifyThreshold)
	bertAcc := Accuracy(embed.NewBERT(), test, ClassifyThreshold)
	sbertAcc := Accuracy(embed.NewSBERT(), test, ClassifyThreshold)
	if dustAcc < 0.75 {
		t.Errorf("DUST accuracy = %v, want >= 0.75", dustAcc)
	}
	// Pre-trained BERT-sim must be near coin toss (anisotropy property).
	if bertAcc < 0.40 || bertAcc > 0.62 {
		t.Errorf("BERT accuracy = %v, want near 0.5", bertAcc)
	}
	if dustAcc <= sbertAcc {
		t.Errorf("DUST (%v) must beat sBERT (%v)", dustAcc, sbertAcc)
	}
	if dustAcc <= bertAcc {
		t.Errorf("DUST (%v) must beat BERT (%v)", dustAcc, bertAcc)
	}
}
