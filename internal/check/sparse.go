package check

import (
	"fmt"
	"math"
)

// SparseCrossCheck runs one spec twice — once with materialized payload
// bytes (the byte-oracle arm: CopyData on, every receive buffer
// verified against the reference executor) and once in the dataless
// checksum-summary mode (per-page digests only, no bytes ever held) —
// and verifies the two runs are observationally identical:
//
//   - bit-identical latency (math.Float64bits equality, not an epsilon),
//   - the same simulator event count (the schedules are the same), and
//   - equal per-rank payload digests (the identical operation stream
//     touched the identical pages from identical sources).
//
// Digest tracking is enabled in both arms, so the materialized arm's
// byte-exactness — proven against the oracle — transfers to the sparse
// arm through digest equality: a dataless 64k-rank sweep is backed by
// the same correctness argument as a 8-rank byte-verified run.
//
// Kill plans are rejected: the recovery path re-runs on a shrunk
// communicator whose allocation layout legitimately differs. So are
// cluster specs: digest tracking is single-node machinery.
// The returned RunResult is the sparse arm's (the materialized arm's on
// its own failure).
func SparseCrossCheck(sp Spec) (*RunResult, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if sp.Kills() {
		return nil, fmt.Errorf("check: %s: sparse cross-check does not support kill plans", sp)
	}
	if sp.Nodes > 0 {
		return nil, fmt.Errorf("check: %s: sparse cross-check does not support cluster specs", sp)
	}
	mat, err := run(sp, true, true)
	if err != nil {
		return mat, err
	}
	spr, err := run(sp, false, true)
	if err != nil {
		return spr, err
	}
	if math.Float64bits(mat.Latency) != math.Float64bits(spr.Latency) {
		return spr, fmt.Errorf("check: %s: sparse cross-check latency mismatch: materialized %v vs sparse %v",
			sp, mat.Latency, spr.Latency)
	}
	if mat.Events != spr.Events {
		return spr, fmt.Errorf("check: %s: sparse cross-check event-count mismatch: materialized %d vs sparse %d",
			sp, mat.Events, spr.Events)
	}
	if len(mat.Digests) != len(spr.Digests) {
		return spr, fmt.Errorf("check: %s: sparse cross-check digest arity mismatch: %d vs %d",
			sp, len(mat.Digests), len(spr.Digests))
	}
	for r := range mat.Digests {
		if mat.Digests[r] != spr.Digests[r] {
			return spr, fmt.Errorf("check: %s: sparse cross-check digest mismatch at rank %d: materialized %#x vs sparse %#x",
				sp, r, mat.Digests[r], spr.Digests[r])
		}
	}
	return spr, nil
}
