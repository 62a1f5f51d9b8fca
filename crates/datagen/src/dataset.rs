//! Dataset assembly: spec → seeded collection of uncertain strings.

use usj_model::rng::Rng;
use usj_model::{Alphabet, UncertainString};

use crate::base::{dblp_like_base, protein_like_base};
use crate::uncertain::{make_uncertain, UncertaintySpec};

/// Fraction of strings generated as *near-duplicates* of an earlier
/// string (1–4 random edits). Real dblp/protein data is full of such
/// near-duplicates — they are what a similarity join finds — so the
/// synthetic collections must contain them too.
const DUPLICATE_FRACTION: f64 = 0.3;

/// Which synthetic source to imitate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// dblp-like author names: `|Σ| = 27`, lengths ≈ normal on `[10, 35]`.
    Dblp,
    /// Protein-like sequences: `|Σ| = 22`, lengths uniform on `[20, 45]`.
    Protein,
}

impl DatasetKind {
    /// The alphabet this kind uses.
    pub fn alphabet(self) -> Alphabet {
        match self {
            DatasetKind::Dblp => Alphabet::names(),
            DatasetKind::Protein => Alphabet::protein(),
        }
    }

    /// The paper's default θ for this dataset (dblp 0.2, protein 0.1).
    pub fn default_theta(self) -> f64 {
        match self {
            DatasetKind::Dblp => 0.2,
            DatasetKind::Protein => 0.1,
        }
    }
}

/// Full dataset specification; equal specs generate identical datasets.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Source to imitate.
    pub kind: DatasetKind,
    /// Number of strings.
    pub n: usize,
    /// Uncertainty parameters (θ, γ, neighbourhood).
    pub uncertainty: UncertaintySpec,
    /// RNG seed.
    pub seed: u64,
}

impl DatasetSpec {
    /// Spec with the paper's defaults for `kind`.
    pub fn new(kind: DatasetKind, n: usize, seed: u64) -> Self {
        DatasetSpec {
            kind,
            n,
            uncertainty: UncertaintySpec {
                theta: kind.default_theta(),
                ..Default::default()
            },
            seed,
        }
    }

    /// Overrides θ.
    pub fn with_theta(mut self, theta: f64) -> Self {
        self.uncertainty.theta = theta;
        self
    }

    /// Generates the dataset.
    pub fn generate(&self) -> Dataset {
        let alphabet = self.kind.alphabet();
        let mut rng = Rng::new(self.seed);
        let mut bases: Vec<Vec<usj_model::Symbol>> = Vec::with_capacity(self.n);
        for i in 0..self.n {
            let base = if i > 0 && rng.chance(DUPLICATE_FRACTION) {
                // Near-duplicate of an earlier base: 1–4 random edits
                // (substitution / insertion / deletion).
                let source = &bases[rng.below(i)];
                mutate(&mut rng, source, alphabet.size())
            } else {
                match self.kind {
                    DatasetKind::Dblp => dblp_like_base(&mut rng, &alphabet),
                    DatasetKind::Protein => protein_like_base(&mut rng, &alphabet),
                }
            };
            bases.push(base);
        }
        let strings = bases
            .iter()
            .map(|base| make_uncertain(&mut rng, base, &alphabet, &self.uncertainty))
            .collect();
        Dataset { alphabet, strings }
    }
}

/// Applies 1–4 random edits (sub/ins/del) to `base`, keeping length ≥ 2.
fn mutate(rng: &mut Rng, base: &[usj_model::Symbol], sigma: usize) -> Vec<usj_model::Symbol> {
    let mut out = base.to_vec();
    let edits = rng.range(1..5);
    for _ in 0..edits {
        match rng.below(3) {
            0 => {
                // substitution
                let pos = rng.below(out.len());
                out[pos] = rng.below(sigma) as usj_model::Symbol;
            }
            1 => {
                // insertion
                let pos = rng.below(out.len() + 1);
                out.insert(pos, rng.below(sigma) as usj_model::Symbol);
            }
            _ => {
                // deletion (keep a minimum length)
                if out.len() > 2 {
                    let pos = rng.below(out.len());
                    out.remove(pos);
                }
            }
        }
    }
    out
}

/// A generated collection.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// The alphabet all strings share.
    pub alphabet: Alphabet,
    /// The uncertain strings.
    pub strings: Vec<UncertainString>,
}

impl Dataset {
    /// Average string length.
    pub fn avg_len(&self) -> f64 {
        if self.strings.is_empty() {
            return 0.0;
        }
        self.strings.iter().map(UncertainString::len).sum::<usize>() as f64
            / self.strings.len() as f64
    }

    /// Average fraction of uncertain positions.
    pub fn avg_theta(&self) -> f64 {
        if self.strings.is_empty() {
            return 0.0;
        }
        self.strings.iter().map(UncertainString::theta).sum::<f64>() / self.strings.len() as f64
    }

    /// The paper's Fig 9 transformation: append each string to itself
    /// `times` times, then cap the number of uncertain positions at
    /// `max_uncertain` (keeping the earliest ones; the paper caps at 8 so
    /// verification stays feasible).
    pub fn self_appended(&self, times: usize, max_uncertain: usize) -> Dataset {
        let strings = self
            .strings
            .iter()
            .map(|s| {
                let mut grown = s.clone();
                for _ in 0..times {
                    grown = grown.concat(s);
                }
                cap_uncertain(&grown, max_uncertain)
            })
            .collect();
        Dataset {
            alphabet: self.alphabet.clone(),
            strings,
        }
    }
}

/// Collapses all but the first `max_uncertain` uncertain positions to
/// their most probable symbol.
fn cap_uncertain(s: &UncertainString, max_uncertain: usize) -> UncertainString {
    let mut seen = 0usize;
    let positions = s
        .positions()
        .iter()
        .map(|p| {
            if p.is_certain() {
                p.clone()
            } else if seen < max_uncertain {
                seen += 1;
                p.clone()
            } else {
                usj_model::Position::certain(p.most_probable())
            }
        })
        .collect();
    UncertainString::new(positions)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dblp_dataset_statistics() {
        let ds = DatasetSpec::new(DatasetKind::Dblp, 300, 11).generate();
        assert_eq!(ds.strings.len(), 300);
        assert!(
            (15.0..26.0).contains(&ds.avg_len()),
            "avg len {}",
            ds.avg_len()
        );
        let theta = ds.avg_theta();
        assert!((0.12..0.28).contains(&theta), "avg theta {theta}");
        for s in &ds.strings {
            assert!(s.validate().is_ok());
        }
    }

    #[test]
    fn protein_dataset_statistics() {
        let ds = DatasetSpec::new(DatasetKind::Protein, 200, 12).generate();
        assert!(
            (28.0..37.0).contains(&ds.avg_len()),
            "avg len {}",
            ds.avg_len()
        );
        let theta = ds.avg_theta();
        assert!((0.05..0.15).contains(&theta), "avg theta {theta}");
    }

    #[test]
    fn reproducible() {
        let a = DatasetSpec::new(DatasetKind::Dblp, 50, 99).generate();
        let b = DatasetSpec::new(DatasetKind::Dblp, 50, 99).generate();
        assert_eq!(a, b);
        let c = DatasetSpec::new(DatasetKind::Dblp, 50, 100).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn self_append_grows_and_caps() {
        let ds = DatasetSpec::new(DatasetKind::Dblp, 20, 5).generate();
        let grown = ds.self_appended(1, 8);
        for (orig, big) in ds.strings.iter().zip(&grown.strings) {
            assert_eq!(big.len(), orig.len() * 2);
            assert!(big.num_uncertain() <= 8);
        }
        // times = 0 only applies the cap.
        let same = ds.self_appended(0, 1000);
        assert_eq!(same, ds);
    }
}
