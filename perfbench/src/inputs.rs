//! Workload inputs, built from the seed argument with the repository's
//! config generator and pinned by digest.
//!
//! The seed picks the values (addresses, names, ASNs, router mix); the
//! shape is fixed per workload: network count, files per network, lines
//! per network and each network's policy-language features. Holding the
//! shape fixed keeps the work a run measures the same from seed to
//! seed, so the spread across seeds is the program's, not the input's.

use std::path::Path;

use confanon::confgen::emit::emit_router;
use confanon::confgen::topo::plan_network;
use confanon::confgen::{GroundTruth, NetworkFeatures, NetworkProfile};
use confanon::core::LeakRecord;
use confanon::crypto::Sha1;
use confanon_testkit::rng::{SeedableRng, StdRng};

/// One generated network: its files plus what the generator planted.
pub struct Network {
    /// Directory name; sorts by network index (`n0-…`, `n1-…`), so a
    /// corpus in network order is in the order the program reads it.
    pub dir: String,
    /// `(host.cfg, text)`, sorted by name: the order `confanon batch`
    /// reads a directory in. Mapping state depends on insertion order,
    /// so every in-process replay must see files in this order too.
    pub routers: Vec<(String, String)>,
    /// Every identity-bearing string planted in the network.
    pub truth: GroundTruth,
}

impl Network {
    /// The generator's ground truth as a leak record.
    pub fn record(&self) -> LeakRecord {
        let (asns, ips, words) = self.truth.record_tuple();
        LeakRecord { asns, ips, words }
    }

    /// Routers `range` as corpus files named `dir/host.cfg`.
    pub fn files(&self, range: std::ops::Range<usize>) -> Vec<(String, String)> {
        self.routers[range]
            .iter()
            .map(|(host, text)| (format!("{}/{host}", self.dir), text.clone()))
            .collect()
    }
}

/// Networks in the batch corpus (the paper's deployment is many
/// networks anonymized in one job).
pub const BATCH_NETWORKS: usize = 8;
/// Routers per batch network.
pub const BATCH_ROUTERS: usize = 40;
/// Config lines per batch network (≈200k lines in the corpus).
pub const BATCH_LINES: usize = 25_000;
/// Routers in the network a warm run appends (≈8% of its files): enough
/// that the run's p95 per-file service time falls among the new files,
/// not on the boundary with the carried ones.
pub const APPEND_ROUTERS: usize = 28;
/// Config lines of the appended network.
pub const APPEND_LINES: usize = 17_500;
/// Routers per serve tenant network.
pub const TENANT_ROUTERS: usize = 170;
/// Of those, routers the prebuilt warm state already holds.
pub const TENANT_PREFIX: usize = 60;
/// Config lines per serve tenant network.
pub const TENANT_LINES: usize = 100_000;

/// Fixed per-network feature mix: every policy-language rule family is
/// exercised in every corpus, whatever the seed.
fn features(index: usize) -> NetworkFeatures {
    NetworkFeatures {
        public_asn_ranges: index % 4 == 1,
        private_asn_ranges: index % 4 == 2,
        asn_alternation: index.is_multiple_of(2),
        community_regexps: index.is_multiple_of(3),
        community_ranges: index.is_multiple_of(6),
        compartmentalized: index % 3 == 1,
    }
}

/// Generates network `index` of a workload: exactly `routers` routers
/// whose configs total close to `lines` lines.
///
/// The generator plans each router's size from the paper's heavy-tailed
/// distribution; here every router is planned at the same size instead
/// (`lines / routers`), so the corpus total and the per-file work hold
/// steady from seed to seed. Routers still differ in what they carry:
/// borders hold the eBGP peers and their AS-path policy, cores the
/// interfaces, so per-file cost keeps a tail.
pub fn network(seed: u64, stream: u64, index: usize, routers: usize, lines: usize) -> Network {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream);
    let profile = if index < 3 {
        NetworkProfile::Backbone
    } else {
        NetworkProfile::Enterprise
    };
    let mut plan = plan_network(&mut rng, index, profile, routers, features(index));
    for r in &mut plan.routers {
        r.target_lines = lines / routers;
    }
    let mut truth = plan.truth.clone();
    let mut routers: Vec<(String, String)> = (0..plan.routers.len())
        .map(|ri| {
            let text = emit_router(&plan, ri, &mut rng, &mut truth);
            (format!("{}.cfg", plan.routers[ri].hostname), text)
        })
        .collect();
    routers.sort();
    Network {
        dir: format!("n{index}-{}", plan.corp),
        routers,
        truth,
    }
}

/// The batch corpus of a seed: [`BATCH_NETWORKS`] networks, plus the
/// appended network when `with_append` is set (index 8, sorts last).
pub fn batch_networks(seed: u64, with_append: bool) -> Vec<Network> {
    let mut nets: Vec<Network> = (0..BATCH_NETWORKS)
        .map(|i| network(seed, i as u64, i, BATCH_ROUTERS, BATCH_LINES))
        .collect();
    if with_append {
        nets.push(network(
            seed,
            BATCH_NETWORKS as u64,
            BATCH_NETWORKS,
            APPEND_ROUTERS,
            APPEND_LINES,
        ));
    }
    nets
}

/// The two serve tenants' networks of a seed.
pub fn tenant_networks(seed: u64) -> Vec<Network> {
    (0..2)
        .map(|t| network(seed, 100 + t as u64, t, TENANT_ROUTERS, TENANT_LINES))
        .collect()
}

/// Every file of `nets` in corpus order.
pub fn all_files(nets: &[Network]) -> Vec<(String, String)> {
    nets.iter()
        .flat_map(|n| n.files(0..n.routers.len()))
        .collect()
}

/// SHA-1 over `(name, length, bytes)` of each file, in order.
pub fn digest_files<'a>(files: impl IntoIterator<Item = (&'a str, &'a [u8])>) -> String {
    let mut h = Sha1::new();
    for (name, bytes) in files {
        h.update(name.as_bytes());
        h.update(&[0]);
        h.update(&(bytes.len() as u64).to_be_bytes());
        h.update(bytes);
    }
    Sha1::to_hex(&h.finalize())
}

/// Digest of in-memory `(name, text)` files.
pub fn digest_texts(files: &[(String, String)]) -> String {
    digest_files(files.iter().map(|(n, t)| (n.as_str(), t.as_bytes())))
}

/// Writes `files` under `root` (`root/name`).
pub fn write_files(root: &Path, files: &[(String, String)]) -> std::io::Result<()> {
    for (name, text) in files {
        let path = root.join(name);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, text)?;
    }
    Ok(())
}

/// Reads every regular file under `root` as `(relative name, bytes)`,
/// sorted by name, skipping names `skip` rejects.
pub fn read_tree(
    root: &Path,
    skip: &dyn Fn(&str) -> bool,
) -> std::io::Result<Vec<(String, Vec<u8>)>> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, Vec<u8>)>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                walk(root, &path, out)?;
            } else {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .into_owned();
                out.push((rel, std::fs::read(&path)?));
            }
        }
        Ok(())
    }
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.retain(|(name, _)| !skip(name));
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn networks_hold_their_shape_whatever_the_seed() {
        for seed in [1, 2, 3] {
            let net = network(seed, 0, 3, BATCH_ROUTERS, BATCH_LINES);
            assert_eq!(net.routers.len(), BATCH_ROUTERS);
            let lines: usize = net.routers.iter().map(|(_, t)| t.lines().count()).sum();
            let off = lines.abs_diff(BATCH_LINES) as f64 / BATCH_LINES as f64;
            assert!(
                off < 0.03,
                "seed {seed}: {lines} lines, budget {BATCH_LINES}"
            );
            assert!(net.dir.starts_with("n3-"));
        }
    }

    #[test]
    fn a_seed_always_yields_the_same_inputs() {
        let a = all_files(&[network(9, 1, 1, 6, 3_000)]);
        let b = all_files(&[network(9, 1, 1, 6, 3_000)]);
        let c = all_files(&[network(10, 1, 1, 6, 3_000)]);
        assert_eq!(digest_texts(&a), digest_texts(&b));
        assert_ne!(digest_texts(&a), digest_texts(&c));
    }
}
