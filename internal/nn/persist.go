package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
)

// netSnapshot is the gob-encodable form of a Network. Only topology and
// weights are persisted; optimizer state and activation caches are not.
type netSnapshot struct {
	Layers []layerSnapshot
}

type layerSnapshot struct {
	Kind    string // "linear", "tanh", "dropout"
	In, Out int
	W, B    []float64
	P       float64
}

// Save writes the network topology and weights to w.
func (n *Network) Save(w io.Writer) error {
	var snap netSnapshot
	for _, l := range n.Layers {
		switch l := l.(type) {
		case *Linear:
			snap.Layers = append(snap.Layers, layerSnapshot{Kind: "linear", In: l.In, Out: l.Out, W: l.w, B: l.b})
		case *Tanh:
			snap.Layers = append(snap.Layers, layerSnapshot{Kind: "tanh"})
		case *Dropout:
			snap.Layers = append(snap.Layers, layerSnapshot{Kind: "dropout", P: l.P})
		default:
			return fmt.Errorf("nn: Save: unsupported layer type %T", l)
		}
	}
	return gob.NewEncoder(w).Encode(snap)
}

// Load reads a network previously written by Save that takes inputs of
// width in. A width below 1, or a linear layer that does not take the width
// reaching it, is an error. Dropout layers are reconstructed with the given
// rng (only used if the loaded model is trained further).
func Load(r io.Reader, in int, rng *rand.Rand) (*Network, error) {
	if in <= 0 {
		return nil, fmt.Errorf("nn: Load: input width %d", in)
	}
	var snap netSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("nn: Load: %w", err)
	}
	net := &Network{}
	for _, ls := range snap.Layers {
		switch ls.Kind {
		case "linear":
			l := &Linear{
				In: ls.In, Out: ls.Out,
				w: ls.W, b: ls.B,
				gw: make([]float64, len(ls.W)),
				gb: make([]float64, len(ls.B)),
			}
			if l.Out <= 0 || l.In != net.Width(in) || len(l.w) != l.In*l.Out || len(l.b) != l.Out {
				return nil, fmt.Errorf("nn: Load: linear layer %d→%d with %d weights and %d biases given width %d",
					l.In, l.Out, len(l.w), len(l.b), net.Width(in))
			}
			net.Layers = append(net.Layers, l)
		case "tanh":
			net.Layers = append(net.Layers, &Tanh{})
		case "dropout":
			net.Layers = append(net.Layers, NewDropout(ls.P, rng))
		default:
			return nil, fmt.Errorf("nn: Load: unknown layer kind %q", ls.Kind)
		}
	}
	return net, nil
}
