// Counting: the terminating probabilistic counting of Theorem 1 through
// the unified job API — the same protocol on two engines (the exact pair
// scheduler and the urn-compressed one that reaches n = 10^5 and beyond)
// — plus the geometric Counting-on-a-Line form of Lemma 1 where the count
// assembles in binary on a self-built line.
package main

import (
	"context"
	"fmt"
	"log"

	"shapesol"
)

func main() {
	ctx := context.Background()
	const n, b = 200, 5

	fmt.Printf("population of %d agents, head start %d (exact engine):\n", n, b)
	for seed := int64(0); seed < 5; seed++ {
		res, err := shapesol.Run(ctx, shapesol.Job{
			Protocol: "counting-upper-bound",
			Params:   shapesol.Params{N: n, B: b},
			Seed:     seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		out := res.Payload.(shapesol.CountOutcome)
		fmt.Printf("  seed %d: halted after %7d interactions, r0 = %3d (%.2f n, success=%v)\n",
			seed, res.Steps, out.R0, out.Estimate, out.Success)
	}

	fmt.Println("\nsame protocol, urn engine, n = 100000:")
	res, err := shapesol.Run(ctx, shapesol.Job{
		Protocol: "counting-upper-bound",
		Engine:   shapesol.EngineUrn,
		Params:   shapesol.Params{N: 100_000, B: b},
		Seed:     0,
	})
	if err != nil {
		log.Fatal(err)
	}
	urn := res.Payload.(shapesol.CountOutcome)
	fmt.Printf("  %.2e simulated interactions, r0/n = %.3f\n",
		float64(res.Steps), urn.Estimate)

	fmt.Println("\ncounting on a line (geometric model, n = 24):")
	res, err = shapesol.Run(ctx, shapesol.Job{
		Protocol: "count-line",
		Params:   shapesol.Params{N: 24, B: 3},
		Seed:     7,
	})
	if err != nil {
		log.Fatal(err)
	}
	out := res.Payload.(shapesol.CountLineOutcome)
	fmt.Printf("  halted=%v r0=%d stored on a line of %d cells (floor(lg r0)+1 = %d), debt repaid=%v\n",
		out.Halted, out.R0, out.LineLength, out.LineLength, out.DebtRepaid)
}
