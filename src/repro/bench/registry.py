"""Experiment registry: one entry per paper table/figure.

Maps each experiment to its description and the benchmark that regenerates
it, so documentation and tooling have a single source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Experiment:
    """One reproducible artifact of the paper.

    Attributes:
        exp_id: e.g. "table2" or "fig7".
        paper_ref: table/figure reference in the paper.
        description: what the artifact shows.
        bench: path of the benchmark that regenerates it.
        modules: main implementing modules.
    """

    exp_id: str
    paper_ref: str
    description: str
    bench: str
    modules: tuple[str, ...]


EXPERIMENTS: dict[str, Experiment] = {
    e.exp_id: e
    for e in (
        Experiment(
            "table1",
            "Table 1",
            "Analytical data-transfer/memory/ADC relations, HiRISE vs conventional",
            "benchmarks/bench_table1_analytical.py",
            ("repro.core.costs",),
        ),
        Experiment(
            "table2",
            "Table 2",
            "Stage-1 mAP: in-processor vs in-sensor scaling, RGB vs gray, 3 resolutions x 3 datasets",
            "benchmarks/bench_table2_accuracy.py",
            ("repro.datasets", "repro.sensor", "repro.ml"),
        ),
        Experiment(
            "fig5",
            "Fig. 5",
            "SPICE-style transients of the analog averaging circuit (2/4/192 inputs)",
            "benchmarks/bench_fig5_circuit.py",
            ("repro.analog",),
        ),
        Experiment(
            "fig6",
            "Fig. 6",
            "Two-stage peak memory vs pixel-array size, in-processor vs in-sensor",
            "benchmarks/bench_fig6_memory.py",
            ("repro.memory", "repro.core"),
        ),
        Experiment(
            "fig7",
            "Fig. 7",
            "Median data transfer vs pixel-array size for pooling 2/4/8 vs baseline",
            "benchmarks/bench_fig7_data_transfer.py",
            ("repro.transfer", "repro.core", "repro.datasets"),
        ),
        Experiment(
            "fig8",
            "Fig. 8",
            "Median sensor energy under pooling levels, RGB and grayscale",
            "benchmarks/bench_fig8_energy.py",
            ("repro.core.energy", "repro.datasets"),
        ),
        Experiment(
            "table3",
            "Table 3",
            "End-to-end: ROI, accuracy, SRAM, transfer, energy across 8 array sizes",
            "benchmarks/bench_table3_end_to_end.py",
            ("repro.core", "repro.memory", "repro.ml", "repro.datasets"),
        ),
        Experiment(
            "stream",
            "Ext. A",
            "Streaming video: frames/sec and transfer — per-frame vs batched vs temporal ROI reuse",
            "benchmarks/bench_stream_throughput.py",
            ("repro.stream", "repro.core", "repro.sensor"),
        ),
        Experiment(
            "service",
            "Ext. B",
            "Service engine: concurrent spec-driven batch vs sequential runs — bit-identical, faster",
            "benchmarks/bench_service_batch.py",
            ("repro.service", "repro.stream", "repro.core"),
        ),
        Experiment(
            "hotpath",
            "Ext. C",
            "Serving hot path: phase breakdown + batched stage-2 vs per-crop loop (BENCH_hotpath.json)",
            "benchmarks/bench_hotpath.py",
            ("repro.core.profiling", "repro.ml", "repro.service"),
        ),
        Experiment(
            "serving",
            "Ext. D",
            "Serving daemon: sustained RPS and p50/p99 latency over the socket, warm-cache hits bit-identical to serial runs",
            "benchmarks/bench_serving.py",
            ("repro.server", "repro.service"),
        ),
        Experiment(
            "sweep",
            "Figs. 6-8 / Table 2",
            "Declarative sweeps (repro sweep examples/sweeps/paper_*.json): paper trends + executor/cache bit-identity",
            "benchmarks/bench_sweep.py",
            ("repro.experiments", "repro.service", "repro.bench"),
        ),
        Experiment(
            "store",
            "Ext. E",
            "Persistent store: warm restarts replay bit-identical with zero disk misses; shm clip transport vs pickle (BENCH_store.json)",
            "benchmarks/bench_store.py",
            ("repro.store", "repro.service", "repro.server"),
        ),
        Experiment(
            "resilience",
            "Ext. F",
            "Fault injection: serving load under worker-crash + socket-drop plans completes 100% with replies byte-identical to a fault-free run (BENCH_resilience.json)",
            "benchmarks/bench_resilience.py",
            ("repro.faults", "repro.server", "repro.service"),
        ),
    )
}
