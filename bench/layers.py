"""Which end-to-end metric a change in each per-layer metric should move.

Names, units and directions of all metrics are in BENCHMARK.json; this table
only adds the expected effect, written down before any optimization so a
later claim can be held to it.  Time metrics are self times (see tracing.py);
counts repeat exactly for a given workload and seed.
"""

MOVES = {
    "cli.self_s": "job_p50_s on enumerate (long fractions printed)",
    "core.json_load_s": "job_p50_s on decide and build",
    "core.json_dump_s": "jobs_per_s on build",
    "core.weight_cells": "peak_rss_mb and job_tail_s on decide; jobs_per_s on build",
    "core.weight_nnz": "peak_rss_mb and job_tail_s on decide; jobs_per_s on build",
    "core.nnz_ratio": "peak_rss_mb and job_tail_s on decide; jobs_per_s on build",
    "core.witness_s": "job_tail_s on decide",
    "exactmath.eval_calls": "jobs_per_s on enumerate",
    "exactmath.normalize_s": "job_p50_s on decide; jobs_per_s on build",
    "exactmath.normalize_calls": "job_p50_s on decide; jobs_per_s on build",
    "exactmath.parse_s": "core.json_load_s, hence job_p50_s on decide and build",
    "series.coeff_s": "jobs_per_s on enumerate; job_p50_s on decide",
    "series.coefficients": "jobs_per_s on enumerate; job_p50_s on decide",
    "series.compositions": "jobs_per_s on enumerate; job_p50_s on decide",
    "series.max_bits": "nothing: explains cost and should never move",
    "closure.ts_hadamard_s": "job_tail_s and peak_rss_mb on decide; jobs_per_s on build",
    "closure.ts_add_s": "job_tail_s and peak_rss_mb on decide; jobs_per_s on build",
    "closure.gf_add_s": "job_tail_s and peak_rss_mb on decide; jobs_per_s on build",
    "closure.shift_s": "job_tail_s and peak_rss_mb on decide; jobs_per_s on build",
    "closure.other_s": "jobs_per_s on build",
    "closure.out_cells": "job_tail_s and peak_rss_mb on decide; jobs_per_s on build",
    "closure.out_nnz": "job_tail_s and peak_rss_mb on decide; jobs_per_s on build",
    "compile.parse_s": "jobs_per_s on build",
    "compile.compile_s": "jobs_per_s and job_p50_s on build (compile-rda, species-compile)",
    "species.parse_s": "job_p50_s on build; it is a few percent of a species-compile job,"
                       " so only a large change shows",
    "species.translate_s": "job_p50_s on build; it is a few percent of a species-compile job,"
                           " so only a large change shows",
    "decide.scan_s": "job_p50_s on decide",
    "decide.coeffs_scanned": "job_p50_s on decide",
    "decide.bound_s": "job_p50_s on decide",
    "decide.system_s": "jobs_per_s on build (emit-system)",
    "trace.untraced_s": "wall time of the untraced in-process pass",
    "trace.overhead_ratio": "tracing cost: traced / untraced wall - 1",
}
