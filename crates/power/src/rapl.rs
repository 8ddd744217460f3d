//! RAPL energy counters via the Linux powercap sysfs interface.
//!
//! When the host exposes readable `energy_uj` counters under
//! `/sys/class/powercap/intel-rapl:N` (package domains), native runs can
//! report *measured* joules instead of modeled ones. The reader samples the
//! counters before and after a run and differences them, handling the
//! counter wraparound that `max_energy_range_uj` announces.
//!
//! Counters are frequently root-only (the kernel restricted them after the
//! PLATYPUS side channel), so [`RaplReader::detect`] returns `None` on most
//! unprivileged hosts and callers fall back to the calibrated model
//! (`cata_power::modeled`).

use std::path::{Path, PathBuf};

/// One readable RAPL package domain.
#[derive(Debug, Clone)]
struct RaplDomain {
    energy_path: PathBuf,
    /// Counter range in microjoules (wrap modulus); 0 if unknown.
    max_range_uj: u64,
}

/// A reader over every readable top-level RAPL package domain.
#[derive(Debug, Clone)]
pub struct RaplReader {
    domains: Vec<RaplDomain>,
}

/// One point-in-time reading: microjoules per domain, in domain order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaplSample {
    uj: Vec<u64>,
}

fn read_u64(path: &Path) -> Option<u64> {
    std::fs::read_to_string(path).ok()?.trim().parse().ok()
}

impl RaplReader {
    /// The standard powercap mount point.
    pub const DEFAULT_ROOT: &'static str = "/sys/class/powercap";

    /// Probes the host's powercap tree; `None` when no package-level
    /// `energy_uj` is readable (the common unprivileged case).
    pub fn detect() -> Option<Self> {
        Self::with_root(Self::DEFAULT_ROOT)
    }

    /// Probes an explicit powercap-like tree (tests point this at a
    /// tempdir). Only top-level package domains (`intel-rapl:N`, no
    /// subdomain suffix) are used, so core/uncore subdomains are never
    /// double-counted against their package.
    pub fn with_root(root: impl AsRef<Path>) -> Option<Self> {
        let root = root.as_ref();
        let mut names: Vec<String> = std::fs::read_dir(root)
            .ok()?
            .flatten()
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|name| {
                name.strip_prefix("intel-rapl:")
                    .is_some_and(|rest| rest.chars().all(|c| c.is_ascii_digit()))
            })
            .collect();
        names.sort();
        let domains: Vec<RaplDomain> = names
            .into_iter()
            .filter_map(|name| {
                let dir = root.join(&name);
                let energy_path = dir.join("energy_uj");
                // Readability check: an actual read, not just metadata.
                read_u64(&energy_path)?;
                Some(RaplDomain {
                    max_range_uj: read_u64(&dir.join("max_energy_range_uj")).unwrap_or(0),
                    energy_path,
                })
            })
            .collect();
        if domains.is_empty() {
            None
        } else {
            Some(RaplReader { domains })
        }
    }

    /// Number of package domains being read.
    pub fn num_domains(&self) -> usize {
        self.domains.len()
    }

    /// Reads every domain counter; `None` if any read fails (a partial
    /// sample would silently under-report).
    pub fn sample(&self) -> Option<RaplSample> {
        let uj = self
            .domains
            .iter()
            .map(|d| read_u64(&d.energy_path))
            .collect::<Option<Vec<u64>>>()?;
        Some(RaplSample { uj })
    }

    /// Joules consumed between two samples of this reader, summed over
    /// domains. A counter that went backwards wrapped; the announced range
    /// recovers the true delta (without a range the domain contributes 0
    /// rather than a bogus huge value).
    pub fn joules_between(&self, start: &RaplSample, end: &RaplSample) -> f64 {
        self.domains
            .iter()
            .zip(start.uj.iter().zip(&end.uj))
            .map(|(d, (&a, &b))| {
                let delta_uj = if b >= a {
                    b - a
                } else if d.max_range_uj > 0 {
                    d.max_range_uj - a + b
                } else {
                    0
                };
                delta_uj as f64 * 1e-6
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_tree(name: &str, packages: &[(u64, u64)]) -> PathBuf {
        let root = cata_sim::scratch_dir(&format!("rapl-{name}"));
        for (i, (uj, range)) in packages.iter().enumerate() {
            let dir = root.join(format!("intel-rapl:{i}"));
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join("energy_uj"), format!("{uj}\n")).unwrap();
            std::fs::write(dir.join("max_energy_range_uj"), format!("{range}\n")).unwrap();
        }
        // A subdomain that must be ignored (its energy is already inside
        // the package counter).
        if !packages.is_empty() {
            let sub = root.join("intel-rapl:0:0");
            std::fs::create_dir_all(&sub).unwrap();
            std::fs::write(sub.join("energy_uj"), "1\n").unwrap();
        }
        root
    }

    #[test]
    fn detects_packages_and_ignores_subdomains() {
        let root = fake_tree(
            "detect",
            &[(1_000_000, 10_000_000), (2_000_000, 10_000_000)],
        );
        let r = RaplReader::with_root(&root).unwrap();
        assert_eq!(r.num_domains(), 2);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn empty_tree_is_none() {
        let root = fake_tree("empty", &[]);
        assert!(RaplReader::with_root(&root).is_none());
        let _ = std::fs::remove_dir_all(&root);
        assert!(RaplReader::with_root(&root).is_none());
    }

    #[test]
    fn differences_samples_including_wraparound() {
        let root = fake_tree("diff", &[(1_000_000, 10_000_000)]);
        let r = RaplReader::with_root(&root).unwrap();
        let s0 = r.sample().unwrap();
        std::fs::write(root.join("intel-rapl:0").join("energy_uj"), "3500000\n").unwrap();
        let s1 = r.sample().unwrap();
        // 2.5 J consumed.
        assert!((r.joules_between(&s0, &s1) - 2.5).abs() < 1e-9);

        // Wrap: counter restarts near zero; range recovers the delta.
        std::fs::write(root.join("intel-rapl:0").join("energy_uj"), "500000\n").unwrap();
        let s2 = r.sample().unwrap();
        // 10_000_000 - 3_500_000 + 500_000 = 7_000_000 µJ = 7 J.
        assert!((r.joules_between(&s1, &s2) - 7.0).abs() < 1e-9);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
