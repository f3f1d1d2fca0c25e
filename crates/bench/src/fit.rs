//! Least-squares helpers for reporting complexity shapes.

/// Estimates the polynomial order of growth from successive `(x, y)`
/// points: the mean of `log(y2/y1)/log(x2/x1)`.
pub fn growth_order(points: &[(f64, f64)]) -> f64 {
    let mut orders = Vec::new();
    for w in points.windows(2) {
        let (x1, y1) = w[0];
        let (x2, y2) = w[1];
        if x2 > x1 && y1 > 0.0 && y2 > 0.0 {
            orders.push((y2 / y1).ln() / (x2 / x1).ln());
        }
    }
    if orders.is_empty() {
        0.0
    } else {
        orders.iter().sum::<f64>() / orders.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growth_order_detects_quadratic() {
        let pts: Vec<(f64, f64)> = [4.0, 8.0, 16.0, 32.0].iter().map(|&x| (x, x * x)).collect();
        let o = growth_order(&pts);
        assert!((o - 2.0).abs() < 0.01, "order {o}");
    }

    #[test]
    fn growth_order_detects_linear() {
        let pts: Vec<(f64, f64)> = [4.0, 8.0, 16.0].iter().map(|&x| (x, 5.0 * x + 1.0)).collect();
        let o = growth_order(&pts);
        assert!(o > 0.9 && o < 1.1, "order {o}");
    }
}

/// Fits `y ≈ a + b·x` (ordinary least squares); returns `(a, b)`.
pub fn fit_affine(points: &[(f64, f64)]) -> (f64, f64) {
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|(x, _)| x).sum();
    let sy: f64 = points.iter().map(|(_, y)| y).sum();
    let sxx: f64 = points.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = points.iter().map(|(x, y)| x * y).sum();
    let den = n * sxx - sx * sx;
    if den == 0.0 {
        return (sy / n, 0.0);
    }
    let b = (n * sxy - sx * sy) / den;
    let a = (sy - b * sx) / n;
    (a, b)
}

#[cfg(test)]
mod affine_tests {
    use super::*;

    #[test]
    fn affine_fit_exact() {
        let pts = [(0.0, 5.0), (1.0, 8.0), (2.0, 11.0), (3.0, 14.0)];
        let (a, b) = fit_affine(&pts);
        assert!((a - 5.0).abs() < 1e-9);
        assert!((b - 3.0).abs() < 1e-9);
    }
}
