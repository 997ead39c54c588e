//! The request generator: every operation a workload issues is a pure
//! function of `(seed, workload)`. The program under test receives only
//! the generated requests, never the seed.
//!
//! Pivots are ω instances, one per `COURSES` tuple of
//! `seed_university_scaled`: department `d` owns courses `C{d}-0` …
//! `C{d}-7`.

/// Courses (ω pivots) per department in the scaled university fixture.
pub const COURSES_PER_DEPT: usize = 8;
/// The course of each department that `wire_update` deletes and
/// re-inserts. Its reader never asks for these, so a GET beside the writer
/// always has exactly one right answer.
pub const DELETABLE_COURSE: usize = 7;

/// splitmix64: small, seedable, and owned by the benchmark so a change to
/// the repository's own generator cannot move the inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, stream)`; distinct streams of one seed do not
    /// overlap in practice.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias at these sizes is
    /// below 2⁻⁵⁰.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One ω pivot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Pivot {
    pub dept: usize,
    pub course: usize,
}

impl Pivot {
    pub fn course_id(&self) -> String {
        format!("C{}-{}", self.dept, self.course)
    }

    /// The pivot at position `i` of the dense order `0..8·scale`.
    pub fn from_index(i: usize) -> Pivot {
        Pivot {
            dept: i / COURSES_PER_DEPT,
            course: i % COURSES_PER_DEPT,
        }
    }
}

/// The VOQL text of a pivot-keyed GET.
pub fn get_voql(pivot: Pivot) -> String {
    format!("GET omega WHERE course_id = '{}'", pivot.course_id())
}

/// The pivot-keyed GET stream of one connection: uniform over the pivots
/// of `scale` departments, optionally leaving out each department's
/// [`DELETABLE_COURSE`].
#[derive(Debug, Clone)]
pub struct GetStream {
    rng: Rng,
    scale: usize,
    courses: usize,
}

impl GetStream {
    pub fn new(seed: u64, connection: usize, scale: usize, skip_deletable: bool) -> Self {
        GetStream {
            rng: Rng::new(seed, 0x6574 + connection as u64),
            scale,
            courses: if skip_deletable {
                DELETABLE_COURSE
            } else {
                COURSES_PER_DEPT
            },
        }
    }
}

impl Iterator for GetStream {
    type Item = Pivot;
    fn next(&mut self) -> Option<Pivot> {
        let dept = self.rng.below(self.scale);
        let course = self.rng.below(self.courses);
        Some(Pivot { dept, course })
    }
}

/// The three complete update requests of the paper (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum UpdateKind {
    /// VO-R: non-key replacement (a new title).
    Replace,
    /// VO-CD: complete deletion.
    Delete,
    /// VO-CI: complete insertion of an instance deleted earlier.
    Insert,
}

/// One retrieve–modify–write-back cycle of the `wire_update` writer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateOp {
    pub kind: UpdateKind,
    pub pivot: Pivot,
    /// The replacing title (VO-R only); unique within the run, so no
    /// replacement degenerates to zero operations.
    pub title: String,
}

/// The writer's cycle stream: 80 % VO-R on any pivot, 10 % VO-CD on a
/// present deletable pivot, 10 % VO-CI of a deleted one. A draw whose
/// kind has no candidate (nothing deleted yet, everything deleted) falls
/// back to VO-R, so every cycle does work. The stream tracks which pivots
/// it has deleted; it is exact as long as every cycle is acknowledged,
/// which the correctness gate checks.
#[derive(Debug, Clone)]
pub struct UpdateStream {
    rng: Rng,
    seed: u64,
    scale: usize,
    issued: u64,
    /// Departments whose deletable course is currently deleted.
    deleted: Vec<usize>,
    /// Departments whose deletable course is currently present.
    present: Vec<usize>,
}

impl UpdateStream {
    pub fn new(seed: u64, scale: usize) -> Self {
        UpdateStream {
            rng: Rng::new(seed, 0x7772),
            seed,
            scale,
            issued: 0,
            deleted: Vec::new(),
            present: (0..scale).collect(),
        }
    }
}

impl Iterator for UpdateStream {
    type Item = UpdateOp;
    fn next(&mut self) -> Option<UpdateOp> {
        let n = self.issued;
        self.issued += 1;
        let draw = self.rng.below(100);
        let (kind, pivot) = if draw >= 90 && !self.deleted.is_empty() {
            let dept = self.deleted.swap_remove(self.rng.below(self.deleted.len()));
            self.present.push(dept);
            (UpdateKind::Insert, deletable(dept))
        } else if (80..90).contains(&draw) && !self.present.is_empty() {
            let dept = self.present.swap_remove(self.rng.below(self.present.len()));
            self.deleted.push(dept);
            (UpdateKind::Delete, deletable(dept))
        } else {
            // replace any pivot that is present: a deleted one has no
            // instance to replace, so redraw its course
            let dept = self.rng.below(self.scale);
            let mut course = self.rng.below(COURSES_PER_DEPT);
            if course == DELETABLE_COURSE && self.deleted.contains(&dept) {
                course = self.rng.below(DELETABLE_COURSE);
            }
            (UpdateKind::Replace, Pivot { dept, course })
        };
        let title = match kind {
            UpdateKind::Replace => format!("title {}.{n}", self.seed),
            _ => String::new(),
        };
        Some(UpdateOp { kind, pivot, title })
    }
}

fn deletable(dept: usize) -> Pivot {
    Pivot {
        dept,
        course: DELETABLE_COURSE,
    }
}

/// One `embedded_batch` cycle: `size` distinct pivots, the first half
/// replaced (VO-R, with these titles), the second half deleted (VO-CD) and
/// then re-inserted (VO-CI).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchPlan {
    pub replace: Vec<(Pivot, String)>,
    pub delete: Vec<Pivot>,
}

/// The batch plans of `embedded_batch`, one per cycle.
#[derive(Debug, Clone)]
pub struct BatchStream {
    rng: Rng,
    seed: u64,
    pivots: usize,
    size: usize,
    cycle: u64,
}

impl BatchStream {
    pub fn new(seed: u64, scale: usize, size: usize) -> Self {
        BatchStream {
            rng: Rng::new(seed, 0x6265),
            seed,
            pivots: scale * COURSES_PER_DEPT,
            size: size.min(scale * COURSES_PER_DEPT),
            cycle: 0,
        }
    }
}

impl Iterator for BatchStream {
    type Item = BatchPlan;
    fn next(&mut self) -> Option<BatchPlan> {
        let cycle = self.cycle;
        self.cycle += 1;
        // partial Fisher–Yates: the first `size` slots are a uniform
        // sample without replacement
        let mut slots: Vec<usize> = (0..self.pivots).collect();
        for i in 0..self.size {
            let j = i + self.rng.below(self.pivots - i);
            slots.swap(i, j);
        }
        let half = self.size / 2;
        let replace = slots[..half]
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                (
                    Pivot::from_index(p),
                    format!("title {}.{cycle}.{i}", self.seed),
                )
            })
            .collect();
        let delete = slots[half..self.size]
            .iter()
            .map(|&p| Pivot::from_index(p))
            .collect();
        Some(BatchPlan { replace, delete })
    }
}

/// The single-operation commits that `recovery` writes before the kill:
/// commit `i` replaces the title of pivot `i mod pivots`.
pub fn recovery_commit(seed: u64, scale: usize, i: usize) -> (Pivot, String) {
    let pivot = Pivot::from_index(i % (scale * COURSES_PER_DEPT));
    (pivot, format!("title {seed}.{i}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Render a workload's first operations as bytes.
    fn transcript(seed: u64, workload: &str) -> String {
        match workload {
            "wire_get" => GetStream::new(seed, 0, 64, false)
                .take(500)
                .map(get_voql)
                .collect::<Vec<_>>()
                .join("\n"),
            "wire_update" => UpdateStream::new(seed, 64)
                .take(500)
                .map(|op| format!("{op:?}"))
                .collect::<Vec<_>>()
                .join("\n"),
            "embedded_batch" => BatchStream::new(seed, 128, 64)
                .take(20)
                .map(|plan| format!("{plan:?}"))
                .collect::<Vec<_>>()
                .join("\n"),
            "recovery" => (0..500)
                .map(|i| format!("{:?}", recovery_commit(seed, 256, i)))
                .collect::<Vec<_>>()
                .join("\n"),
            other => panic!("no workload {other}"),
        }
    }

    #[test]
    fn same_seed_gives_byte_identical_operations() {
        for workload in ["wire_get", "wire_update", "embedded_batch", "recovery"] {
            assert_eq!(transcript(42, workload), transcript(42, workload));
            assert_ne!(transcript(42, workload), transcript(43, workload));
        }
    }

    #[test]
    fn update_stream_keeps_the_mix_and_never_touches_a_missing_instance() {
        let mut deleted = std::collections::BTreeSet::new();
        let mut titles = std::collections::BTreeSet::new();
        let mut counts = [0usize; 3];
        for op in UpdateStream::new(7, 16).take(10_000) {
            match op.kind {
                UpdateKind::Replace => {
                    assert!(!deleted.contains(&op.pivot), "replace of a deleted pivot");
                    assert!(titles.insert(op.title), "titles are run-unique");
                    counts[0] += 1;
                }
                UpdateKind::Delete => {
                    assert_eq!(op.pivot.course, DELETABLE_COURSE);
                    assert!(deleted.insert(op.pivot), "double delete");
                    counts[1] += 1;
                }
                UpdateKind::Insert => {
                    assert!(deleted.remove(&op.pivot), "insert of a present pivot");
                    counts[2] += 1;
                }
            }
        }
        assert!((7_800..8_300).contains(&counts[0]), "{counts:?}");
        assert!((850..1_150).contains(&counts[1]), "{counts:?}");
        assert!((850..1_150).contains(&counts[2]), "{counts:?}");
    }

    #[test]
    fn reader_stream_skips_the_deletable_course() {
        assert!(GetStream::new(3, 1, 8, true)
            .take(2_000)
            .all(|p| p.course != DELETABLE_COURSE && p.dept < 8));
        assert!(GetStream::new(3, 1, 8, false)
            .take(2_000)
            .any(|p| p.course == DELETABLE_COURSE));
    }

    #[test]
    fn batch_plans_pick_distinct_pivots() {
        for plan in BatchStream::new(5, 8, 64).take(50) {
            let mut all: Vec<Pivot> = plan.replace.iter().map(|(p, _)| *p).collect();
            all.extend(&plan.delete);
            assert_eq!((plan.replace.len(), plan.delete.len()), (32, 32));
            all.sort();
            all.dedup();
            assert_eq!(all.len(), 64);
            assert!(all
                .iter()
                .all(|p| p.dept < 8 && p.course < COURSES_PER_DEPT));
        }
    }
}
