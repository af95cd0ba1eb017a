package job

// SeedJobs returns every golden job and every faultedSnapshotJobs entry:
// part of FuzzJobDecode's seed corpus. That target lives in the external
// test package so that it can also read the experiment registry, which
// imports this one.
func SeedJobs() []Job {
	var out []Job
	for _, g := range goldenJobs {
		out = append(out, g.job)
	}
	for _, g := range faultedSnapshotJobs {
		out = append(out, g.job)
	}
	return out
}
