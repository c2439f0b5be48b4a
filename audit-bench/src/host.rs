//! Per-process CPU and memory counters from `/proc` (Linux only).

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed
/// at 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// CPU seconds consumed so far, as `(self, waited-for children)`: this
/// process's `utime + stime`, and `cutime + cstime` of children it reaped.
pub fn cpu_seconds() -> Result<(f64, f64), String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    parse_cpu_seconds(&stat)
}

fn parse_cpu_seconds(stat: &str) -> Result<(f64, f64), String> {
    // The command name in field 2 may hold spaces; fields resume after
    // its closing parenthesis, starting with field 3 (state).
    let rest = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |field: usize| -> Result<u64, String> {
        fields
            .get(field - 3)
            .and_then(|f| f.parse::<u64>().ok())
            .ok_or_else(|| format!("/proc/self/stat lacks field {field}"))
    };
    let seconds = |a: u64, b: u64| (a + b) as f64 / USER_HZ;
    Ok((
        seconds(ticks(14)?, ticks(15)?),
        seconds(ticks(16)?, ticks(17)?),
    ))
}

/// This process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "/proc/self/status has no VmHWM line".to_string())
}

/// Cores this process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_survive_a_command_name_with_spaces() {
        let stat = "42 (audit bench) S 1 42 42 0 -1 4194304 100 0 0 0 250 50 7 3 20 0 3 0";
        assert_eq!(parse_cpu_seconds(stat), Ok((3.0, 0.1)));
    }

    #[test]
    fn live_counters_are_readable() {
        let (own, _) = cpu_seconds().expect("cpu counters");
        assert!(own >= 0.0);
        assert!(peak_rss_mb().expect("VmHWM") > 0.0);
    }
}
