//! Worker-count environment parsing: `IBIS_JOBS`, how many experiments a
//! sweep runs concurrently (`ibis-cluster`'s `SweepRunner`).

/// The machine's available parallelism (1 if undeterminable).
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The environment-selected sweep width: `IBIS_JOBS` when set (clamped to
/// ≥ 1), else the machine's available parallelism. A set-but-unparseable
/// value warns and falls back to 1: a typo degrades to serial instead of
/// crashing a sweep.
pub fn jobs_from_env() -> usize {
    match std::env::var("IBIS_JOBS") {
        Ok(v) => v.trim().parse::<usize>().map_or_else(
            |_| {
                eprintln!("warning: unparseable IBIS_JOBS={v:?}; using 1");
                1
            },
            |n| n.max(1),
        ),
        Err(_) => available_cores(),
    }
}
