package serve

// MaxFinishedJobs exposes the terminal-job retention bound to the external
// tests.
const MaxFinishedJobs = maxFinishedJobs
