// Package sumindex implements the Sum-Index simultaneous-messages problem
// (Definition 1.5) and the paper's reduction from distance labeling
// (Theorem 1.6): Alice and Bob share a bit string S of length m and hold
// private indices a and b; each sends one message to a referee who must
// output S[(a+b) mod m].
//
// The graph protocol realizes the reduction concretely: both players build
// the graph G'_{b,ℓ} — the layered graph H_{b,ℓ} with every level-ℓ vertex
// v_{ℓ,y} removed when S[repr(y)] = 0 — compute the same deterministic
// distance labeling, and send the label of v_{0,2x} (Alice) and v_{2ℓ,2z}
// (Bob), where x and z are the (s/2)-ary digit vectors of a and b. The
// referee decodes the distance and compares it against the Lemma 2.2
// closed form: equality certifies that the midpoint v_{ℓ,x+z} is present,
// i.e. S[(a+b) mod m] = 1 (Observation 3.1).
package sumindex

import (
	"errors"
	"fmt"

	"hublab/internal/graph"
	"hublab/internal/hub"
	"hublab/internal/lbound"
	"hublab/internal/pll"
)

var (
	// ErrBadParam reports invalid parameters.
	ErrBadParam = errors.New("sumindex: invalid parameter")
	// ErrBadMessage reports an undecodable protocol message.
	ErrBadMessage = errors.New("sumindex: malformed message")
)

// Instance is a shared Sum-Index input: M bits of S.
type Instance struct {
	S []byte // bit i of S is S[i/8]>>(7-i%8)&1
	M int
}

// NewInstance wraps a bit string of length m.
func NewInstance(bits []bool) Instance {
	data := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		if b {
			data[i/8] |= 1 << (7 - uint(i%8))
		}
	}
	return Instance{S: data, M: len(bits)}
}

// Bit returns S[i].
func (in Instance) Bit(i int) byte {
	return in.S[i/8] >> (7 - uint(i%8)) & 1
}

// Transcript records one protocol execution.
type Transcript struct {
	// AliceBits and BobBits are the message sizes in bits (index included).
	AliceBits, BobBits int
	// Output is the referee's answer.
	Output byte
}

// Trivial runs the trivial protocol: Alice sends S and a, Bob sends b; the
// referee reads the bit directly. Message sizes m+log m and log m.
func Trivial(in Instance, a, b int) (Transcript, error) {
	if a < 0 || a >= in.M || b < 0 || b >= in.M {
		return Transcript{}, fmt.Errorf("%w: indices (%d,%d) outside [0,%d)", ErrBadParam, a, b, in.M)
	}
	idxBits := bitsFor(in.M)
	return Transcript{
		AliceBits: in.M + idxBits,
		BobBits:   idxBits,
		Output:    in.Bit((a + b) % in.M),
	}, nil
}

func bitsFor(m int) int {
	bits := 1
	for 1<<uint(bits) < m {
		bits++
	}
	return bits
}

// GraphProtocol is the Theorem 1.6 reduction for parameters (b, ℓ):
// m = (s/2)^ℓ with s = 2^b.
type GraphProtocol struct {
	params lbound.Params
	m      int
}

// NewGraphProtocol validates parameters and returns the protocol
// descriptor.
func NewGraphProtocol(b, l int) (*GraphProtocol, error) {
	p := lbound.Params{B: b, L: l}
	if _, err := lbound.BuildH(p); err != nil {
		return nil, err
	}
	m := 1
	half := p.Side() / 2
	for k := 0; k < l; k++ {
		m *= half
		if m > 1<<20 {
			return nil, fmt.Errorf("%w: m too large", ErrBadParam)
		}
	}
	if m < 2 {
		return nil, fmt.Errorf("%w: m=%d, want ≥ 2 (b ≥ 2 required)", ErrBadParam, m)
	}
	return &GraphProtocol{params: p, m: m}, nil
}

// M returns the Sum-Index length handled by this protocol.
func (gp *GraphProtocol) M() int { return gp.m }

// Params exposes the underlying construction parameters.
func (gp *GraphProtocol) Params() lbound.Params { return gp.params }

// Session holds the shared deterministic state both players compute from S:
// the pruned graph G'_{b,ℓ} (as its weighted H-equivalent) and its distance
// labeling.
type Session struct {
	gp       *GraphProtocol
	h        *lbound.Layered // the full H (for vertex naming)
	pruned   *graph.Graph    // H with W-removed level-ℓ vertices isolated
	labeling *hub.Labeling
	removed  []bool // removed[yIdx] for level-ℓ vectors
}

// NewSession builds the shared state for instance in. Both Alice and Bob
// run exactly this computation, so the labeling is part of the shared
// protocol description, not communication.
func (gp *GraphProtocol) NewSession(in Instance) (*Session, error) {
	if in.M != gp.m {
		return nil, fmt.Errorf("%w: instance has m=%d, protocol needs %d", ErrBadParam, in.M, gp.m)
	}
	h, err := lbound.BuildH(gp.params)
	if err != nil {
		return nil, err
	}
	s := gp.params.Side()
	half := s / 2
	layer := gp.params.LayerSize()
	removed := make([]bool, layer)
	// W(y) = [S_repr(y) = 1]; repr folds the s-ary vector with (s/2)-ary
	// weights mod m.
	for yIdx := 0; yIdx < layer; yIdx++ {
		vec := vectorOf(yIdx, s, gp.params.L)
		if in.Bit(repr(vec, half, gp.m)) == 0 {
			removed[yIdx] = true
		}
	}
	// Rebuild H without edges incident to removed level-ℓ vertices (the
	// vertices stay as isolated ids so the naming is unchanged).
	b := graph.NewBuilder(h.G.NumNodes(), h.G.NumEdges())
	b.Grow(h.G.NumNodes())
	midLevel := gp.params.L
	for _, e := range h.G.Edges() {
		if isRemovedMid(h, e.U, midLevel, removed, layer) ||
			isRemovedMid(h, e.V, midLevel, removed, layer) {
			continue
		}
		b.AddWeightedEdge(e.U, e.V, e.W)
	}
	pruned, err := b.Build()
	if err != nil {
		return nil, err
	}
	labeling, err := pll.Build(pruned, pll.Options{OrderBy: "degree"})
	if err != nil {
		return nil, err
	}
	return &Session{gp: gp, h: h, pruned: pruned, labeling: labeling, removed: removed}, nil
}

func isRemovedMid(h *lbound.Layered, v graph.NodeID, midLevel int, removed []bool, layer int) bool {
	if h.LevelOf(v) != midLevel {
		return false
	}
	return removed[int(v)%layer]
}

func vectorOf(idx, s, l int) []int {
	vec := make([]int, l)
	for k := 0; k < l; k++ {
		vec[k] = idx % s
		idx /= s
	}
	return vec
}

// repr folds a (possibly overflowing) digit vector with (s/2)-ary weights
// modulo m.
func repr(vec []int, half, m int) int {
	r := 0
	pow := 1
	for _, d := range vec {
		r = (r + d*pow) % m
		pow = (pow * half) % m
	}
	return r
}

// digits returns the ℓ-digit (s/2)-ary representation of a.
func digits(a, half, l int) []int {
	out := make([]int, l)
	for k := 0; k < l; k++ {
		out[k] = a % half
		a /= half
	}
	return out
}

// Message is one player's simultaneous message: the encoded distance label
// of their graph vertex plus their index.
type Message struct {
	Label   []byte
	BitLen  int
	Index   int
	idxBits int
}

// Bits returns the total message size in bits.
func (m Message) Bits() int { return m.BitLen + m.idxBits }

// AliceMessage builds Alice's message for index a.
func (s *Session) AliceMessage(a int) (Message, error) {
	return s.message(a, 0)
}

// BobMessage builds Bob's message for index b.
func (s *Session) BobMessage(b int) (Message, error) {
	return s.message(b, 2*s.gp.params.L)
}

func (s *Session) message(idx, level int) (Message, error) {
	if idx < 0 || idx >= s.gp.m {
		return Message{}, fmt.Errorf("%w: index %d outside [0,%d)", ErrBadParam, idx, s.gp.m)
	}
	half := s.gp.params.Side() / 2
	vec := digits(idx, half, s.gp.params.L)
	for k := range vec {
		vec[k] *= 2
	}
	v, err := s.h.VertexID(level, vec)
	if err != nil {
		return Message{}, err
	}
	data, bits, err := s.labeling.EncodeLabel(v)
	if err != nil {
		return Message{}, err
	}
	return Message{Label: data, BitLen: bits, Index: idx, idxBits: bitsFor(s.gp.m)}, nil
}

// Referee decodes the answer bit from the two messages alone (plus the
// public protocol parameters): it reconstructs x and z from the indices,
// decodes the distance from the two labels, and compares with the Lemma 2.2
// closed form for the intact graph.
func (gp *GraphProtocol) Referee(alice, bob Message) (byte, error) {
	la, err := hub.DecodeLabel(alice.Label, alice.BitLen)
	if err != nil {
		return 0, fmt.Errorf("%w: alice: %v", ErrBadMessage, err)
	}
	lb, err := hub.DecodeLabel(bob.Label, bob.BitLen)
	if err != nil {
		return 0, fmt.Errorf("%w: bob: %v", ErrBadMessage, err)
	}
	half := gp.params.Side() / 2
	x := digits(alice.Index, half, gp.params.L)
	z := digits(bob.Index, half, gp.params.L)
	// Closed form for the intact H between v_{0,2x} and v_{2ℓ,2z}:
	// 2ℓA + 2Σ(z_k-x_k)².
	want := graph.Weight(2*gp.params.L) * gp.params.BaseWeight()
	for k := 0; k < gp.params.L; k++ {
		d := graph.Weight(z[k] - x[k])
		want += 2 * d * d
	}
	got, ok := hub.MergeQuery(la, lb)
	if ok && got == want {
		return 1, nil
	}
	return 0, nil
}

// Run executes the protocol end to end for indices (a, b).
func (s *Session) Run(a, b int) (Transcript, error) {
	alice, err := s.AliceMessage(a)
	if err != nil {
		return Transcript{}, err
	}
	bob, err := s.BobMessage(b)
	if err != nil {
		return Transcript{}, err
	}
	out, err := s.gp.Referee(alice, bob)
	if err != nil {
		return Transcript{}, err
	}
	return Transcript{AliceBits: alice.Bits(), BobBits: bob.Bits(), Output: out}, nil
}

// VerifyAll checks the protocol output against the true bit for every index
// pair (a, b) ∈ [0,m)². It returns the number of pairs checked and the
// maximum message size observed.
func (s *Session) VerifyAll(in Instance) (pairs, maxBits int, err error) {
	for a := 0; a < s.gp.m; a++ {
		for b := 0; b < s.gp.m; b++ {
			tr, err := s.Run(a, b)
			if err != nil {
				return pairs, maxBits, err
			}
			want := in.Bit((a + b) % s.gp.m)
			if tr.Output != want {
				return pairs, maxBits, fmt.Errorf(
					"sumindex: referee wrong on (a=%d,b=%d): got %d, want %d", a, b, tr.Output, want)
			}
			pairs++
			if tr.AliceBits > maxBits {
				maxBits = tr.AliceBits
			}
			if tr.BobBits > maxBits {
				maxBits = tr.BobBits
			}
		}
	}
	return pairs, maxBits, nil
}
