//! Ranking metrics beyond Precision@P: average precision (MAP) and
//! precision–recall curves, standard companions in the network-
//! reconstruction literature the paper cites (\[9\], the Cui et al.
//! survey).

/// Average precision of a ranked boolean relevance list (scores already
/// sorted descending by the caller): the mean of precision@k over the
/// positions k of the relevant items.
///
/// Returns 0 when there are no relevant items.
pub fn average_precision(relevance: &[bool]) -> f64 {
    let mut hits = 0usize;
    let mut total = 0.0;
    for (i, &rel) in relevance.iter().enumerate() {
        if rel {
            hits += 1;
            total += hits as f64 / (i + 1) as f64;
        }
    }
    if hits == 0 {
        0.0
    } else {
        total / hits as f64
    }
}

/// One point of a precision–recall curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrPoint {
    /// Rank cutoff (1-based).
    pub k: usize,
    /// Precision@k.
    pub precision: f64,
    /// Recall@k.
    pub recall: f64,
}

/// Precision–recall curve of a ranked relevance list, one point per
/// relevant item (the standard "interpolatable" representation).
pub fn pr_curve(relevance: &[bool]) -> Vec<PrPoint> {
    let total_relevant = relevance.iter().filter(|&&r| r).count();
    if total_relevant == 0 {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(total_relevant);
    let mut hits = 0usize;
    for (i, &rel) in relevance.iter().enumerate() {
        if rel {
            hits += 1;
            out.push(PrPoint {
                k: i + 1,
                precision: hits as f64 / (i + 1) as f64,
                recall: hits as f64 / total_relevant as f64,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_ranking() {
        let rel = [true, true, false, false];
        assert_eq!(average_precision(&rel), 1.0);
        let curve = pr_curve(&rel);
        assert_eq!(curve.len(), 2);
        assert_eq!(curve[1], PrPoint { k: 2, precision: 1.0, recall: 1.0 });
    }

    #[test]
    fn textbook_example() {
        // Relevant at ranks 1, 3, 5: AP = (1/1 + 2/3 + 3/5) / 3.
        let rel = [true, false, true, false, true];
        let expect = (1.0 + 2.0 / 3.0 + 3.0 / 5.0) / 3.0;
        assert!((average_precision(&rel) - expect).abs() < 1e-12);
    }

    #[test]
    fn no_relevant_items() {
        assert_eq!(average_precision(&[false, false]), 0.0);
        assert!(pr_curve(&[false]).is_empty());
        assert_eq!(average_precision(&[]), 0.0);
    }

    #[test]
    fn recall_is_monotone_and_terminal() {
        let rel = [false, true, true, false, true];
        let curve = pr_curve(&rel);
        assert!(curve.windows(2).all(|w| w[0].recall < w[1].recall));
        assert_eq!(curve.last().unwrap().recall, 1.0);
    }
}
