//! Host interference: CPU time the hypervisor gave to someone else.
//!
//! On a virtual machine the host can take the CPUs away for minutes at a
//! time; every request then runs at a fraction of its speed. The kernel
//! counts that time as `steal` in `/proc/stat`. The share of a run is a
//! diagnostic printed on stderr; it changes no result.

/// Cumulative CPU time counters of all CPUs, in clock ticks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

/// Reads the aggregate `cpu` line of `/proc/stat`.
pub fn cpu_ticks() -> Option<CpuTicks> {
    parse_cpu_line(std::fs::read_to_string("/proc/stat").ok()?.lines().next()?)
}

fn parse_cpu_line(line: &str) -> Option<CpuTicks> {
    let mut fields = line.strip_prefix("cpu ")?.split_whitespace();
    // user nice system idle iowait irq softirq steal; guest time is
    // already inside user and nice.
    let ticks: Vec<u64> = fields
        .by_ref()
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    (ticks.len() == 8).then(|| CpuTicks {
        steal: ticks[7],
        total: ticks.iter().sum(),
    })
}

/// The share of CPU time stolen between two readings (0 when unknown).
pub fn steal_share(before: Option<CpuTicks>, after: Option<CpuTicks>) -> f64 {
    match (before, after) {
        (Some(a), Some(b)) if b.total > a.total => {
            b.steal.saturating_sub(a.steal) as f64 / (b.total - a.total) as f64
        }
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_is_the_eighth_counter() {
        let a = parse_cpu_line("cpu  100 0 10 800 0 0 0 90 0 0").expect("parses");
        let b = parse_cpu_line("cpu  140 0 20 840 0 0 0 100 0 0").expect("parses");
        assert_eq!(steal_share(Some(a), Some(b)), 0.1);
        assert_eq!(steal_share(None, Some(b)), 0.0);
        assert_eq!(parse_cpu_line("cpu0 1 2 3 4 5 6 7 8"), None);
        assert_eq!(parse_cpu_line("cpu  1 2 3"), None);
        assert!(cpu_ticks().is_some());
    }
}
