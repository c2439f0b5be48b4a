//! Pins the `repro` lines that read `V(D, n)`: the neighborhood-graph
//! sizes of E7, the refutations of E9, the hiding spectrum of E14, the
//! view-rule witness of E15, the hidden fractions of E16 and the hiding
//! onsets of E18. Timings are the only part of the output that may move.

use std::process::Command;

/// `repro E7 E9 E14 E15 E16 E18`, each timing replaced by `<time>`.
const EXPECTED: &str = r#"
================================================================
E7: Lemmas 3.1/3.2 - neighborhood graph + extraction decoder
paper: V(D,n) computable; D hiding iff V(D,n) not 2-colorable; extractor otherwise
----------------------------------------------------------------
revealing LCP: exhaustive universe n<=4 -> V(D,4): 18 views, 29 edges (<time>)
2-colorable  : true (=> NOT hiding)
extraction   : 4/4 accepted instances yield proper 2-colorings
degree-one   : V not 2-colorable: true => no extractor exists: true
even-cycle   : V not 2-colorable: true => no extractor exists: true
shatter      : V not 2-colorable: true => no extractor exists: true
watermelon   : V not 2-colorable: true => no extractor exists: true

================================================================
E9: Theorem 1.5 - refutation pipeline (Lemmas 5.4/5.5 machinery)
paper: no decoder is hiding AND strong: both witnesses found for cheats
----------------------------------------------------------------
edge3        : REFUTED - odd walk len 1, violation on K4 (via realization: false)
degree-one   : hiding (odd walk len 9) but NOT refutable - it is strong
Lemma 5.4    : expansion walk W_e on torus6x6: 8 nodes, even: true
Lemma 5.5    : repair walk through the second cycle: 10 nodes (9 edges, odd)
repair_edge  : V(D,.)-edge (0,2) replaced by a lifted odd walk of 10 views

================================================================
E14: hiding spectrum - chi(V(D,.)) per LCP
paper: an LCP hides K-colorings for every K < chi(V); the separation program of Section 1 needs chi > 3
----------------------------------------------------------------
LCP           views      chi(V)  hides K-colorings for
revealing         8           2                  K < 2
degree-one       28           3                  K < 3
even-cycle       16 inf (self-loop)                every K
shatter          13           3                  K < 3
watermelon      336           3                  K < 3
(chi over a partial universe lower-bounds the true chi: the 'hides' column
 is conclusive, the upper end is universe-relative.)
=> only Lemma 4.2's edge-coloring scheme hides a 3-coloring - exactly what
   the promise-free SLOCAL/online-LOCAL separation recipe demands.

================================================================
E15: the LCL problem Pi - 3-coloring under a 2-colorability certificate
paper: strong soundness makes Pi solvable on ANY input; self-loops defeat every view-based rule
----------------------------------------------------------------
solver       : 250/250 adversarially-labeled instances 3-colored on their valid regions
view rules   : defeated - instance 0 has adjacent nodes 0,1 with identical views: true

================================================================
E16: quantified hiding - fraction of nodes NO decoder can color
paper: future work in the paper: 'at least a constant fraction of nodes fail'; Lemma 4.1 hides at one pocket, Lemma 4.2 everywhere
----------------------------------------------------------------
LCP          single-instance universe         witness universe
degree-one                      0.000                    1.000
even-cycle                      1.000                    1.000
revealing                       0.000                    0.000
(fraction of instance nodes in non-2-colorable components of V(D,.): a lower
 bound on every decoder's failure fraction. Lemma 4.2's scheme hides 100%
 already against a SINGLE instance - its self-loop needs no second instance -
 while Lemma 4.1 needs the prover's freedom of pendant/polarity choice, and
 the revealing baseline hides nothing either way.)

================================================================
E18: hiding onset - how many instances until V(D,.) turns odd
paper: hiding witnesses are universe phenomena: Lemma 4.1 needs several accepted labelings, Lemma 4.2 only one
----------------------------------------------------------------
degree-one   : odd closed walk first appears after 7 accepted labelings of P4
even-cycle   : odd closed walk after 1 instance (self-loop: true)

all requested experiments completed in <time>
"#;

/// Replaces every duration token (`415.03ms`, `(1.2s)`, `12µs`, ...) by
/// `<time>`, keeping any parentheses around it.
fn strip_timings(line: &str) -> String {
    line.split(' ')
        .map(|token| {
            let core = token.trim_matches(|c| c == '(' || c == ')');
            let is_duration = ["ns", "µs", "ms", "s"]
                .iter()
                .find_map(|unit| core.strip_suffix(unit))
                .is_some_and(|number| number.parse::<f64>().is_ok());
            if is_duration {
                token.replace(core, "<time>")
            } else {
                token.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

#[test]
fn repro_prints_the_pinned_neighborhood_graph_lines() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["E7", "E9", "E14", "E15", "E16", "E18"])
        .output()
        .expect("the repro binary runs");
    assert!(out.status.success(), "repro exited with {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let got: Vec<String> = stdout.lines().map(strip_timings).collect();
    let want: Vec<&str> = EXPECTED.lines().collect();
    for (i, (got, want)) in got.iter().zip(&want).enumerate() {
        assert_eq!(got, want, "line {}", i + 1);
    }
    assert_eq!(got.len(), want.len(), "line count");
}
