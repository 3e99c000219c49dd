// Package experiments regenerates every table and figure of the paper's
// evaluation (§6 and Appendix A.2) over the synthetic benchmark corpus.
// Each experiment is a function returning a renderable report; the
// cmd/dustbench binary and the repository's benchmark harness both call
// into this package. Absolute numbers differ from the paper (the substrate
// is a simulator, not the authors' testbed); the shapes — who wins, by
// roughly what factor, where crossovers fall — are the reproduction target
// and are recorded in EXPERIMENTS.md.
package experiments

import (
	"bytes"
	"embed"
	"sync"

	"dust/internal/datagen"
	"dust/internal/model"
)

// Config controls experiment scale.
type Config struct {
	// Quick shrinks the workloads so the whole suite runs in tens of
	// seconds (used by `go test` and `go test -bench`); the full scale is
	// the dustbench default.
	Quick bool
}

// scale returns q if Quick, f otherwise.
func (c Config) scale(q, f int) int {
	if c.Quick {
		return q
	}
	return f
}

// modelFiles holds the fine-tuning recipe's three models (model.TrainRecipe),
// each regenerated byte for byte by
//
//	go run ./cmd/dusttrain -base roberta -out internal/experiments/models/dust-roberta.model
//	go run ./cmd/dusttrain -base bert -out internal/experiments/models/dust-bert.model
//	go run ./cmd/dusttrain -base ditto -out internal/experiments/models/ditto.model
//
//go:embed models/*.model
var modelFiles embed.FS

// Models returns the two DUST variants and the Ditto simulator the
// fine-tuning recipe trains, loaded once per process from modelFiles, with
// the recipe's pair dataset.
func Models() (dustRoberta, dustBert, ditto *model.Model, pairs datagen.PairDataset) {
	ms := loadModels()
	return ms[0], ms[1], ms[2], model.RecipePairs()
}

// loadModels loads the checked-in models. They are part of the build, so
// one that does not load is a broken checkout.
var loadModels = sync.OnceValue(func() (ms [3]*model.Model) {
	for i, name := range []string{"dust-roberta", "dust-bert", "ditto"} {
		b, err := modelFiles.ReadFile("models/" + name + ".model")
		if err == nil {
			ms[i], err = model.Load(bytes.NewReader(b))
		}
		if err != nil {
			panic("experiments: " + name + ": " + err.Error())
		}
	}
	return ms
})

// Benchmarks used across experiments, regenerated on demand (generation is
// cheap; only the loaded models are cached).
func benchTUSSampled() *datagen.Benchmark { return datagen.TUSSampled() }
func benchSANTOS() *datagen.Benchmark     { return datagen.SANTOS() }
func benchUGEN() *datagen.Benchmark       { return datagen.UGEN() }
func benchIMDB() *datagen.Benchmark       { return datagen.IMDB() }
