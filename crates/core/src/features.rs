//! Feature-vector assembly for the classifier.
//!
//! Static features concatenate the RAW/AGG family (Table II(a)) with the
//! MCA family (Table II(b)); dynamic features concatenate the Table-III
//! vector across the eight team sizes (Table IV indexes importances by
//! `(feature, PEs)` pairs accordingly).

use crate::labeling::{EnergyProfile, NUM_CLASSES};
use kernel_ir::{AggFeatures, Kernel, RawFeatures};
use pulp_energy_model::DYNAMIC_FEATURE_NAMES;
use pulp_mca::{analyze_kernel, MCA_FEATURE_NAMES};
use serde::{Deserialize, Serialize};

/// Which static feature family feeds the decision tree (the x-axis of the
/// right plot of Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StaticFeatureSet {
    /// RAW counts only (`op`, `tcdm`, `transfer`, `avgws`).
    Raw,
    /// Grewe-style aggregates only (`F1`, `F3`, `F4`).
    Agg,
    /// Machine-code-analyser features only (13 dims).
    Mca,
    /// RAW + AGG.
    RawAgg,
    /// Everything (20 dims).
    All,
}

impl StaticFeatureSet {
    /// All families in presentation order.
    pub const ALL_SETS: [StaticFeatureSet; 5] = [
        StaticFeatureSet::Raw,
        StaticFeatureSet::Agg,
        StaticFeatureSet::Mca,
        StaticFeatureSet::RawAgg,
        StaticFeatureSet::All,
    ];

    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            StaticFeatureSet::Raw => "RAW",
            StaticFeatureSet::Agg => "AGG",
            StaticFeatureSet::Mca => "MCA",
            StaticFeatureSet::RawAgg => "RAW+AGG",
            StaticFeatureSet::All => "ALL",
        }
    }

    /// Column indices of this family within the full static vector.
    pub fn columns(self) -> Vec<usize> {
        match self {
            StaticFeatureSet::Raw => (0..4).collect(),
            StaticFeatureSet::Agg => (4..7).collect(),
            StaticFeatureSet::Mca => (7..20).collect(),
            StaticFeatureSet::RawAgg => (0..7).collect(),
            StaticFeatureSet::All => (0..20).collect(),
        }
    }
}

/// Width of the full static feature vector: the seven RAW/AGG features
/// plus the MCA family. Reading it allocates nothing, unlike
/// `static_feature_names().len()`.
pub const STATIC_WIDTH: usize = 7 + MCA_FEATURE_NAMES.len();

/// Names of the full 20-dimensional static feature vector.
pub fn static_feature_names() -> Vec<String> {
    let mut names = vec![
        "op".to_string(),
        "tcdm".to_string(),
        "transfer".to_string(),
        "avgws".to_string(),
        "F1".to_string(),
        "F3".to_string(),
        "F4".to_string(),
    ];
    names.extend(MCA_FEATURE_NAMES.iter().map(|s| s.to_string()));
    names
}

/// Extracts the full static vector of one kernel (RAW, AGG, MCA).
pub fn static_feature_vector(kernel: &Kernel) -> Vec<f64> {
    let raw = RawFeatures::extract(kernel);
    let agg = AggFeatures::from_raw(&raw);
    let mca = analyze_kernel(kernel);
    let mut v = vec![
        raw.op as f64,
        raw.tcdm as f64,
        raw.transfer as f64,
        raw.avgws,
        agg.f1,
        agg.f3,
        agg.f4,
    ];
    v.extend(mca.to_vec());
    v
}

/// Names of the 80-dimensional dynamic vector (`<feature>@<PEs>`).
pub fn dynamic_feature_names() -> Vec<String> {
    let mut names = Vec::with_capacity(DYNAMIC_FEATURE_NAMES.len() * NUM_CLASSES);
    for team in 1..=NUM_CLASSES {
        for f in DYNAMIC_FEATURE_NAMES {
            names.push(format!("{f}@{team}"));
        }
    }
    names
}

/// Flattens a sample's per-team dynamic features into one vector aligned
/// with [`dynamic_feature_names`].
pub fn dynamic_feature_vector(profile: &EnergyProfile) -> Vec<f64> {
    let mut v = Vec::with_capacity(DYNAMIC_FEATURE_NAMES.len() * profile.dynamic.len());
    for d in &profile.dynamic {
        v.extend(d.to_vec());
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernel_ir::{DType, KernelBuilder, Suite};

    fn kernel() -> Kernel {
        let mut b = KernelBuilder::new("k", Suite::Custom, DType::F32, 1024);
        let x = b.array("x", 256);
        b.par_for(256, |b, i| {
            b.load(x, i);
            b.compute(2);
            b.store(x, i);
        });
        b.build().expect("valid")
    }

    #[test]
    fn static_vector_matches_names() {
        let v = static_feature_vector(&kernel());
        assert_eq!(v.len(), static_feature_names().len());
        assert_eq!(v.len(), 20);
    }

    #[test]
    fn static_width_is_the_number_of_static_names() {
        assert_eq!(STATIC_WIDTH, static_feature_names().len());
    }

    #[test]
    fn feature_set_columns_partition_the_vector() {
        let mut all: Vec<usize> = StaticFeatureSet::Raw
            .columns()
            .into_iter()
            .chain(StaticFeatureSet::Agg.columns())
            .chain(StaticFeatureSet::Mca.columns())
            .collect();
        all.sort_unstable();
        assert_eq!(all, StaticFeatureSet::All.columns());
    }

    #[test]
    fn raw_block_reflects_kernel() {
        let v = static_feature_vector(&kernel());
        // op = 2 fp + 1 region jump; tcdm = 2; transfer = 1024; avgws = 256.
        assert_eq!(v[0], 3.0);
        assert_eq!(v[1], 2.0);
        assert_eq!(v[2], 1024.0);
        assert_eq!(v[3], 256.0);
    }

    #[test]
    fn dynamic_names_cover_all_team_sizes() {
        let names = dynamic_feature_names();
        assert_eq!(names.len(), 80);
        assert!(names.contains(&"PE_sleep@2".to_string()));
        assert!(names.contains(&"L1_conflicts@8".to_string()));
    }
}
