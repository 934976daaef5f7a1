"""The CLI's bytes and the rank tables at the benchmark's full sizes against
perfbench's stored digests.

Sets up the `figure_export` workload through perfbench/workloads.py at full
scale, runs each CLI job that has a reference fingerprint (the 456,655-row
`s77_sample` overlay among them) and checks it with the benchmark's oracle,
so encoder drift at benchmark sizes fails here, not only in a benchmark run.
The rank-table jobs of `exact_iid` and `word_models` are checked the same
way, so drift in `rank_of`, the PMF's sum or the tie-group count fails here
too.  Nothing under perfbench/ is written.
"""
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402

W = run.import_workloads()


def test_full_size_cli_bytes_match_the_stored_digests(tmp_path):
    inputs = W.setup("figure_export", 5, "full", tmp_path, run.NullTracer())
    reference = run.load_reference(W, "full")
    jobs = [
        job for job in W.jobs_for("figure_export", inputs)
        if job.outputs and not job.seeded and job.name in reference
    ]
    assert {"approx_s77_n3", "guesswork_s3", "typical_s3", "tilt_s3"} <= {j.name for j in jobs}
    mismatches = {}
    for job in jobs:
        found = W.fingerprint_mismatches(job, job.run(run.NullTracer(), {}), reference[job.name])
        if found:
            mismatches[job.name] = found
    assert mismatches == {}


#: the rank-table jobs of each workload whose digests are checked
RANK_JOBS = {
    "exact_iid": ("rank_s2", "rank_s3", "rank_s77"),
    "word_models": ("rank_s3_markov", "rank_s3_hmm"),
}


@pytest.mark.parametrize("workload", sorted(RANK_JOBS))
def test_full_size_rank_tables_match_the_stored_digests(workload, tmp_path):
    inputs = W.setup(workload, 5, "full", tmp_path, run.NullTracer())
    reference = run.load_reference(W, "full")
    jobs = {job.name: job for job in W.jobs_for(workload, inputs)}
    mismatches = {}
    for name in RANK_JOBS[workload]:
        job = jobs[name]
        found = W.fingerprint_mismatches(job, job.run(run.NullTracer(), {}), reference[name])
        if found:
            mismatches[name] = found
    assert mismatches == {}
