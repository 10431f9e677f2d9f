//! The shard worker process the `sharded_8000pe` workload spawns: the same
//! body as the `experiments` package's `sweep-worker`, built beside the
//! benchmark binary so the benchmark needs only its own package.

fn main() {
    sweepsvc::shard::worker_main()
}
