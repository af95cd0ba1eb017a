// Package viz renders configurations and shapes as ASCII art, used by the
// examples and by cmd/experiments to regenerate the paper's figures.
package viz

import (
	"sort"
	"strings"

	"shapesol/internal/grid"
	"shapesol/internal/sim"
)

// RenderShape draws a 2D shape: '#' for occupied cells, '.' for empty grid
// positions inside the bounding box, with rows printed top to bottom.
func RenderShape(s *grid.Shape) string {
	return RenderLabeled(s, func(grid.Pos) byte { return '#' })
}

// RenderLabeled draws a 2D shape with a per-cell glyph.
func RenderLabeled(s *grid.Shape, glyph func(grid.Pos) byte) string {
	lo, hi, ok := s.Bounds()
	if !ok {
		return "(empty)\n"
	}
	var b strings.Builder
	for y := hi.Y; y >= lo.Y; y-- {
		for x := lo.X; x <= hi.X; x++ {
			p := grid.Pos{X: x, Y: y}
			if s.Has(p) {
				b.WriteByte(glyph(p))
			} else {
				b.WriteByte('.')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderWorld draws every multi-node component of a 2D world side by side
// (top-aligned), with singleton components summarized as a count. The
// glyph function receives the node's state.
func RenderWorld[S comparable](w *sim.World[S], glyph func(state S) byte) string {
	var blocks [][]string
	singles := 0
	slots := w.ComponentSlots()
	sort.Ints(slots)
	for _, slot := range slots {
		if w.ComponentSize(slot) == 1 {
			singles++
			continue
		}
		blocks = append(blocks, renderComponent(w, slot, glyph))
	}
	var b strings.Builder
	if len(blocks) > 0 {
		height := 0
		for _, bl := range blocks {
			height = max(height, len(bl))
		}
		for row := 0; row < height; row++ {
			for i, bl := range blocks {
				if i > 0 {
					b.WriteString("   ")
				}
				if row < len(bl) {
					b.WriteString(bl[row])
				} else {
					b.WriteString(strings.Repeat(" ", len(bl[0])))
				}
			}
			b.WriteByte('\n')
		}
	}
	if singles > 0 {
		b.WriteString(strings.Repeat("o", min(singles, 40)))
		if singles > 40 {
			b.WriteString("...")
		}
		b.WriteString(" (")
		b.WriteString(itoa(singles))
		b.WriteString(" free)\n")
	}
	return b.String()
}

func renderComponent[S comparable](w *sim.World[S], slot int, glyph func(S) byte) []string {
	nodes := w.ComponentNodes(slot)
	byPos := make(map[grid.Pos]int, len(nodes))
	lo := w.Pos(nodes[0])
	hi := lo
	for _, id := range nodes {
		p := w.Pos(id)
		byPos[p] = id
		lo = grid.Pos{X: min(lo.X, p.X), Y: min(lo.Y, p.Y)}
		hi = grid.Pos{X: max(hi.X, p.X), Y: max(hi.Y, p.Y)}
	}
	var rows []string
	for y := hi.Y; y >= lo.Y; y-- {
		var row strings.Builder
		for x := lo.X; x <= hi.X; x++ {
			if id, ok := byPos[grid.Pos{X: x, Y: y}]; ok {
				row.WriteByte(glyph(w.State(id)))
			} else {
				row.WriteByte('.')
			}
		}
		rows = append(rows, row.String())
	}
	return rows
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var digits []byte
	for v > 0 {
		digits = append([]byte{byte('0' + v%10)}, digits...)
		v /= 10
	}
	return string(digits)
}
