//! Small slice-based vector helpers shared across the workspace.

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0;
    for i in 0..a.len() {
        acc += a[i] * b[i];
    }
    acc
}

/// Euclidean distance between two slices; `f64::INFINITY` when their
/// lengths differ, so vectors from different spaces are never near.
#[inline]
pub fn euclidean_distance(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    let mut acc = 0.0;
    for i in 0..a.len() {
        let d = a[i] - b[i];
        acc += d * d;
    }
    acc.sqrt()
}

/// Arithmetic mean (0.0 for an empty slice).
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f64>() / a.len() as f64
    }
}

/// Population standard deviation (0.0 for slices of length < 2).
pub fn std_dev(a: &[f64]) -> f64 {
    if a.len() < 2 {
        return 0.0;
    }
    let m = mean(a);
    (a.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / a.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_of_known_vectors() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn euclidean_distance_matches_hand_computation() {
        assert!((euclidean_distance(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn slices_of_unequal_length_are_infinitely_far_apart() {
        assert_eq!(euclidean_distance(&[0.0, 0.0, 0.0], &[3.0, 4.0]), f64::INFINITY);
        assert_eq!(euclidean_distance(&[3.0], &[3.0, 4.0]), f64::INFINITY);
        assert_eq!(euclidean_distance(&[], &[]), 0.0);
    }

    #[test]
    fn mean_and_std() {
        let a = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&a) - 5.0).abs() < 1e-12);
        assert!((std_dev(&a) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_slices_are_handled() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[]), 0.0);
    }
}
