package sim

// Stepwise makes RunContext, and so Settle, draw every step through Step,
// as it does for a world with a profile: the per-step reference the skip's
// law tests compare against.
func Stepwise[S comparable](w *World[S]) { w.stepwise = true }

// ValidateEachEffective makes RunContext validate w after every effective
// interaction, stopping the run with ReasonPredicate at the first error,
// which fail receives. Settle installs its own predicate.
func ValidateEachEffective[S comparable](w *World[S], fail func(error)) {
	w.doneAfter = func(w *World[S]) bool {
		if err := w.Validate(); err != nil {
			fail(err)
			return true
		}
		return false
	}
}

// Skipped returns the steps w jumped over without executing them.
func Skipped[S comparable](w *World[S]) int64 { return w.skipped }
