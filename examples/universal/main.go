// Universal construction (Theorem 4, Figure 7): simulate a shape-
// constructing TM on the square, mark pixels, release the waste, and keep
// exactly the target shape — here all three built-in languages on a 7x7
// square, each a "universal" registry job with the language as a typed
// parameter, printed beside the target shape it must match.
package main

import (
	"context"
	"fmt"
	"log"

	"shapesol"
	"shapesol/internal/shapes"
)

func main() {
	fmt.Printf("shape languages: %v\n\n", shapesol.Languages())
	for _, lang := range []string{"star", "cross", "bottom-row"} {
		res, err := shapesol.Run(context.Background(), shapesol.Job{
			Protocol: "universal",
			Params:   shapesol.Params{Lang: lang, D: 7},
			Seed:     3,
		})
		if err != nil {
			log.Fatal(err)
		}
		target, err := shapes.ByName(lang)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s on a 7x7 square: %v\n%s\n",
			lang, res.Payload.(shapesol.UniversalOutcome), shapes.Render(target, 7))
	}
}
