// Package ida implements the Iterative Deepening A* application of the
// paper (Section 4.6): solving 15-puzzle instances with a distributed job
// queue and work stealing — the paper's example of an advanced dynamic
// load-balancing scheme.
//
// Original program: a fixed steal order (power-of-two offsets from the own
// rank) that makes the highest-numbered process of a cluster steal from
// remote clusters first, and steal requests that keep going to processors
// already known to be idle.
//
// Optimized program: steal inside the own cluster first, and use the idle
// map (maintained for free from the termination-detection broadcasts every
// worker already sends) to skip known-idle victims. As in the paper, the
// intercluster steal traffic roughly halves while the speedup barely moves
// at DAS network parameters, because the load balance is already good.
package ida

import (
	"albatross/internal/rng"
)

// Board is a 15-puzzle position: board[i] is the tile at cell i, 0 is the
// blank. The goal has tile i+1 at cell i and the blank at cell 15.
type Board struct {
	cells [16]int8
	blank int8
}

// Goal returns the solved position.
func Goal() Board {
	var b Board
	for i := 0; i < 15; i++ {
		b.cells[i] = int8(i + 1)
	}
	b.cells[15] = 0
	b.blank = 15
	return b
}

// IsGoal reports whether the board is solved.
func (b *Board) IsGoal() bool {
	for i := 0; i < 15; i++ {
		if b.cells[i] != int8(i+1) {
			return false
		}
	}
	return true
}

// moves: 0=up 1=down 2=left 3=right (movement of the blank).
var moveDelta = [4]int8{-4, 4, -1, 1}

// canMove reports whether the blank at position pos can move in direction d.
func canMove(pos, d int8) bool {
	switch d {
	case 0:
		return pos >= 4
	case 1:
		return pos < 12
	case 2:
		return pos%4 != 0
	case 3:
		return pos%4 != 3
	}
	return false
}

// reverse maps each move to its inverse.
var reverse = [4]int8{1, 0, 3, 2}

// moveTab[pos][d] is the cell the blank reaches from pos by move d, or -1
// where canMove forbids it. mdDelta[t][to][from] is the change in the
// Manhattan heuristic when tile t slides from cell to into cell from (the
// blank going the other way). The search steps through these two tables
// instead of dividing out rows and columns on every move and undo.
var (
	moveTab [16][4]int8
	mdDelta [16][16][16]int8
)

func init() {
	for pos := int8(0); pos < 16; pos++ {
		for d := int8(0); d < 4; d++ {
			moveTab[pos][d] = -1
			if canMove(pos, d) {
				moveTab[pos][d] = pos + moveDelta[d]
			}
		}
		for t := int8(1); t < 16; t++ {
			for from := int8(0); from < 16; from++ {
				mdDelta[t][pos][from] = int8(tileDist(t, from) - tileDist(t, pos))
			}
		}
	}
}

// tileDist is tile t's Manhattan distance from cell to its goal cell, t-1.
func tileDist(t, cell int8) int {
	g := t - 1
	dr, dc := int(cell/4-g/4), int(cell%4-g%4)
	if dr < 0 {
		dr = -dr
	}
	if dc < 0 {
		dc = -dc
	}
	return dr + dc
}

// manhattan computes the Manhattan-distance heuristic.
func manhattan(b *Board) int {
	h := 0
	for cell, t := range b.cells {
		if t != 0 {
			h += tileDist(t, int8(cell))
		}
	}
	return h
}

// apply moves the blank in direction d and returns the heuristic delta.
func (b *Board) apply(d int8) int {
	from := b.blank
	to := moveTab[from][d]
	t := b.cells[to]
	b.cells[from], b.cells[to], b.blank = t, 0, to
	return int(mdDelta[t][to][from])
}

// Scramble returns the board reached by a deterministic pseudo-random walk
// of length steps from the goal (never undoing the previous move), a
// standard way to generate instances with bounded optimal depth.
func Scramble(steps int, seed uint64) Board {
	r := rng.New(seed)
	b := Goal()
	last := int8(-1)
	for k := 0; k < steps; k++ {
		for {
			d := int8(r.Intn(4))
			if last >= 0 && d == reverse[last] {
				continue
			}
			if !canMove(b.blank, d) {
				continue
			}
			b.apply(d)
			last = d
			break
		}
	}
	return b
}

// searchResult accumulates one bounded DFS.
type searchResult struct {
	expansions int64
	solutions  int64
	next       int // smallest f that exceeded the threshold
}

const infThreshold = 1 << 30

// boundedDFS searches all extensions of b (reached with cost g, heuristic h,
// last move lm) up to the f-threshold, counting expansions and solutions.
// Every legal non-reversing move counts as one expansion, in move order 0..3;
// only a child inside the threshold is stepped into, and stepping back swaps
// the same two cells. The &15 on each index is a no-op that lets the compiler
// drop the bounds checks of this loop (a sixth of the search's time).
func boundedDFS(b *Board, g, h int, lm int8, threshold int, res *searchResult) {
	if h == 0 && b.IsGoal() {
		res.solutions++
		return
	}
	from := b.blank
	back := int8(-1) // the move that would step straight back
	if lm >= 0 {
		back = reverse[lm]
	}
	moves := &moveTab[from&15]
	for d := int8(0); d < 4; d++ {
		to := moves[d]
		if to < 0 || d == back {
			continue
		}
		t := b.cells[to&15]
		nh := h + int(mdDelta[t&15][to&15][from&15])
		res.expansions++
		if f := g + 1 + nh; f <= threshold {
			b.cells[from], b.cells[to], b.blank = t, 0, to
			boundedDFS(b, g+1, nh, d, threshold, res)
			b.cells[from], b.cells[to], b.blank = 0, t, from
		} else if f < res.next {
			res.next = f
		}
	}
}
