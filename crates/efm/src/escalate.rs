//! Graceful degradation: automatic divide-and-conquer escalation.
//!
//! The paper's Network II story (§IV, Table IV) is a *manual* recovery:
//! Algorithm 2 unsplit exhausts node memory at the 59th iteration, so the
//! authors re-ran it as the divide-and-conquer Algorithm 3 over a chosen
//! reaction split. This module turns that recovery into a policy — when an
//! enumeration aborts with [`ClusterError::MemoryExceeded`], the driver
//! consults [`suggest_partition`](crate::apps::suggest_partition) and
//! re-launches as divide-and-conquer over `2^qsub` subsets, doubling the
//! split until the run fits or the escalation ladder is exhausted.
//! [`Run::escalate`](crate::Run::escalate) turns the policy on. The ladder
//! starts after the direct attempt that failed, on the network that run
//! already compressed; the supervisor hands over its own failed attempt,
//! so the unsplit enumeration never runs twice.

use crate::api::{divided, Solved};
use crate::apps::suggest_partition;
use crate::bridge::EfmScalar;
use crate::divide::Backend;
use crate::schedule::DncConfig;
use crate::types::{EfmError, EfmOptions};
use efm_bitset::BitPattern;
use efm_metnet::{MetabolicNetwork, ReducedNetwork};

/// One rung of the escalation ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct EscalationAttempt {
    /// Number of partition reactions (`0` = the unsplit direct run).
    pub qsub: usize,
    /// The partition reactions used (empty for the unsplit run).
    pub partition: Vec<String>,
    /// `None` when the attempt succeeded; the error display otherwise.
    pub error: Option<String>,
}

/// The escalation ladder after the direct run failed with `direct_err`, a
/// memory abort: records that failure as the `qsub = 0` attempt, then for
/// `qsub = 1, 2, ..., max_qsub` asks [`suggest_partition`] for a reaction
/// split of the already-compressed network and re-runs as
/// divide-and-conquer over the `2^qsub` subsets under `dnc`, stopping at
/// the first success. Every failure that is *not* a memory abort
/// propagates immediately — escalation cannot fix a protocol error or a
/// panic. If every rung fails (or no further split exists), the ladder
/// moves out of `attempts` into [`EfmError::EscalationExhausted`] with the
/// last memory error.
#[allow(clippy::too_many_arguments)]
pub(crate) fn escalate<P: BitPattern, S: EfmScalar>(
    net: &MetabolicNetwork,
    red: &ReducedNetwork,
    opts: &EfmOptions,
    backend: &Backend,
    dnc: &DncConfig,
    max_qsub: usize,
    direct_err: EfmError,
    attempts: &mut Vec<EscalationAttempt>,
) -> Result<Solved, EfmError> {
    attempts.push(EscalationAttempt {
        qsub: 0,
        partition: Vec::new(),
        error: Some(direct_err.to_string()),
    });
    let mut last_err = direct_err;
    for qsub in 1..=max_qsub {
        let partition = suggest_partition(net, red, qsub);
        if partition.len() < qsub {
            // The network has no further reversible pivotal reactions to
            // split on; deeper rungs would repeat the same partition.
            break;
        }
        match divided::<P, S>(net, red, &partition, opts, backend, dnc) {
            Ok(solved) => {
                attempts.push(EscalationAttempt { qsub, partition, error: None });
                return Ok(solved);
            }
            Err(e) if e.is_memory_exceeded() => {
                attempts.push(EscalationAttempt { qsub, partition, error: Some(e.to_string()) });
                last_err = e;
            }
            Err(e) => return Err(e),
        }
    }
    // Keep the typed memory error of the deepest attempt, and the ladder.
    Err(EfmError::EscalationExhausted {
        last: Box::new(last_err),
        attempts: std::mem::take(attempts),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Run;
    use efm_cluster::ClusterConfig;
    use efm_numeric::DynInt;

    fn cluster(cfg: ClusterConfig, escalate: usize) -> Run {
        Run { backend: Backend::Cluster(cfg), escalate: Some(escalate), ..Default::default() }
    }

    #[test]
    fn no_escalation_when_memory_suffices() {
        let net = efm_metnet::examples::toy_network();
        let out = cluster(ClusterConfig::new(2), 2).enumerate::<DynInt>(&net).unwrap();
        assert_eq!(out.escalation.len(), 1);
        assert!(out.escalation[0].error.is_none());
        assert_eq!(out.efms.len(), 8);
    }

    #[test]
    fn non_memory_errors_propagate_immediately() {
        let net = efm_metnet::examples::toy_network();
        // A mode limit abort is not a memory abort; escalation must not
        // retry it.
        let opts = EfmOptions { max_modes: Some(1), ..Default::default() };
        let run = Run { opts, escalate: Some(2), ..Default::default() };
        match run.enumerate::<DynInt>(&net) {
            Err(EfmError::ModeLimitExceeded { .. }) => {}
            other => panic!("expected mode limit error, got {other:?}"),
        }
    }

    #[test]
    fn exhausted_ladder_carries_every_attempt() {
        let net = efm_metnet::examples::toy_network();
        // No split of the toy network fits under 300 bytes.
        let run = cluster(ClusterConfig::new(2).with_memory_limit(300), 2);
        let err = run.enumerate::<DynInt>(&net).unwrap_err();
        assert!(err.is_memory_exceeded(), "{err:?}");
        assert_eq!(crate::classify_failure(&err), crate::FailureClass::Memory);
        let EfmError::EscalationExhausted { last, attempts } = err else {
            panic!("expected an exhausted ladder, got {err:?}");
        };
        assert!(matches!(*last, EfmError::Cluster(_)), "{last:?}");
        assert_eq!(attempts.iter().map(|a| a.qsub).collect::<Vec<_>>(), [0, 1, 2]);
        assert!(attempts.iter().all(|a| a.error.is_some()));
        assert_eq!(attempts[2].error, Some(last.to_string()));
    }

    #[test]
    fn memory_abort_escalates_to_divide_and_conquer() {
        let net = efm_metnet::examples::toy_network();
        // A cap small enough to abort the unsplit toy run but roomy enough
        // for its quarters (the toy network's subsets carry ~2 modes each).
        let run = Run { backend: Backend::Cluster(ClusterConfig::new(2)), ..Default::default() };
        let direct = run.enumerate::<DynInt>(&net).unwrap();
        let mut cap = None;
        for bytes in [96u64, 128, 160, 192, 256, 320, 384] {
            let run = Run {
                backend: Backend::Cluster(ClusterConfig::new(2).with_memory_limit(bytes)),
                ..Default::default()
            };
            match run.enumerate::<DynInt>(&net) {
                Err(EfmError::Cluster(e)) if e.is_memory_exceeded() => {
                    cap = Some(bytes);
                    break;
                }
                _ => {}
            }
        }
        let Some(cap) = cap else {
            panic!("no cap tripped the unsplit toy run");
        };
        // With 4x the failing cap the unsplit run may still fail, but some
        // rung of the ladder must fit; if even qsub=2 does not, the test
        // network is too small for the chosen caps and the ladder errors.
        match cluster(ClusterConfig::new(2).with_memory_limit(cap * 4), 2).enumerate::<DynInt>(&net)
        {
            Ok(out) => {
                assert_eq!(out.efms, direct.efms);
                if out.escalation.len() > 1 {
                    assert!(out.escalation[0].error.is_some());
                    assert!(out.escalation.last().unwrap().error.is_none());
                }
            }
            Err(e @ EfmError::EscalationExhausted { .. }) => {
                assert!(e.is_memory_exceeded(), "non-memory failure {e:?}");
            }
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }
}
