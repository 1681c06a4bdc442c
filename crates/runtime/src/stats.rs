//! Dynamic execution statistics (the "Dyn. Cnt." columns of paper Table 1).

/// Statistics accumulated during one execution (all threads merged).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Interpreter steps executed.
    pub steps: u64,
    /// Syscalls issued.
    pub syscalls: u64,
    /// Sum of the counter value observed at each syscall.
    pub cnt_sum: u128,
    /// Number of counter samples (== syscalls).
    pub cnt_samples: u64,
    /// Maximum counter value observed at a syscall.
    pub cnt_max: u64,
    /// Maximum depth of the fresh-frame counter stack (paper: "maximum
    /// depth of the stack is small").
    pub max_counter_depth: usize,
    /// Maximum activation (call) depth.
    pub max_activation_depth: usize,
    /// Lx threads spawned.
    pub threads_spawned: u64,
    /// Loop-backedge barrier crossings (hook invocations at backedges).
    /// Neither execution waits there, so they are counted, not timed.
    pub barrier_waits: u64,
}

impl RunStats {
    /// Average counter value at syscalls (paper Table 1 "Avg.").
    pub fn cnt_avg(&self) -> f64 {
        if self.cnt_samples == 0 {
            0.0
        } else {
            self.cnt_sum as f64 / self.cnt_samples as f64
        }
    }

    /// Records one counter observation.
    pub fn sample_counter(&mut self, cnt: u64, depth: usize) {
        self.cnt_sum += u128::from(cnt);
        self.cnt_samples += 1;
        self.cnt_max = self.cnt_max.max(cnt);
        self.max_counter_depth = self.max_counter_depth.max(depth);
    }

    /// Merges another thread's statistics into this one.
    pub fn merge(&mut self, other: &RunStats) {
        self.steps += other.steps;
        self.syscalls += other.syscalls;
        self.cnt_sum += other.cnt_sum;
        self.cnt_samples += other.cnt_samples;
        self.cnt_max = self.cnt_max.max(other.cnt_max);
        self.max_counter_depth = self.max_counter_depth.max(other.max_counter_depth);
        self.max_activation_depth = self.max_activation_depth.max(other.max_activation_depth);
        self.threads_spawned += other.threads_spawned;
        self.barrier_waits += other.barrier_waits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_and_average() {
        let mut s = RunStats::default();
        assert_eq!(s.cnt_avg(), 0.0);
        s.sample_counter(2, 1);
        s.sample_counter(4, 3);
        assert_eq!(s.cnt_avg(), 3.0);
        assert_eq!(s.cnt_max, 4);
        assert_eq!(s.max_counter_depth, 3);
    }

    #[test]
    fn merge_combines() {
        let mut a = RunStats {
            steps: 10,
            syscalls: 2,
            cnt_sum: 5,
            cnt_samples: 2,
            cnt_max: 3,
            max_counter_depth: 1,
            max_activation_depth: 4,
            threads_spawned: 1,
            barrier_waits: 3,
        };
        let b = RunStats {
            steps: 5,
            syscalls: 1,
            cnt_sum: 9,
            cnt_samples: 1,
            cnt_max: 9,
            max_counter_depth: 2,
            max_activation_depth: 2,
            threads_spawned: 0,
            barrier_waits: 2,
        };
        a.merge(&b);
        assert_eq!(a.steps, 15);
        assert_eq!(a.syscalls, 3);
        assert_eq!(a.cnt_max, 9);
        assert_eq!(a.max_counter_depth, 2);
        assert_eq!(a.max_activation_depth, 4);
        assert_eq!(a.barrier_waits, 5);
    }
}
