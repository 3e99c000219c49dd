package model

import (
	"fmt"

	"dust/internal/datagen"
)

// recipeCorpus returns the fine-tuning recipe's TUS-derived corpus (§6.1.1).
func recipeCorpus() *datagen.Benchmark {
	return datagen.Generate("tus-finetune", datagen.Config{
		Seed: 901, Domains: 8, TablesPerBase: 8, BaseRows: 60, MinRows: 10, MaxRows: 20,
	})
}

// RecipePairs returns the fine-tuning recipe's labelled tuple pairs: 2 000
// drawn from its corpus, split 70/15/15 into train, validation and test.
func RecipePairs() datagen.PairDataset { return datagen.Pairs(recipeCorpus(), 2000, 902) }

// TrainRecipe runs the fine-tuning recipe, the one set-up behind the
// paper's tuple models (§6.3), for base: "roberta" and "bert" train
// dust-roberta and dust-bert on RecipePairs, "ditto" trains the Ditto
// simulator over the RoBERTa featurizer on entity-matching pairs (§6.3.2);
// all three validate on RecipePairs under DefaultConfig. The outputs are
// checked in under internal/experiments/models, and cmd/dusttrain
// regenerates each byte for byte.
func TrainRecipe(base string) (*Model, error) {
	pairs := RecipePairs()
	name, feat, train := "dust-"+base, NewRoBERTaFeaturizer(), pairs.Train
	switch base {
	case "roberta":
	case "bert":
		feat = NewBERTFeaturizer()
	case "ditto":
		name, train = "ditto", datagen.EntityPairs(recipeCorpus(), len(pairs.Train), 903)
	default:
		return nil, fmt.Errorf("model: unknown recipe base %q (want roberta, bert or ditto)", base)
	}
	return Train(name, feat, train, pairs.Val, DefaultConfig()), nil
}
