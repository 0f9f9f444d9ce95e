//! Which slave holds which rank of a fleet: one table, one rank rule.
//!
//! A [`Membership`] has a row per rank, held by a slave's session or
//! free, the refused sessions and the fleet epoch. It does no I/O, starts
//! no thread and takes no lock: the socket acceptor and the runtime's
//! fleet share it behind their own mutex and act on what it decides.
//!
//! The rank rule, [`Membership::admit`]:
//!
//! - a hello that names a held rank is a rejoin: the same session
//!   rejoins, a different one replaces the holder, whose session is
//!   refused from then on;
//! - a hello that names a free rank in range takes that rank;
//! - any other hello takes the lowest free rank, and only an elastic
//!   table grows, by one row, when none is free;
//! - a refused session is turned away.
//!
//! During the initial accept there are no rejoins, no growth, no epoch
//! bump and no events: a second hello for a held rank gets the lowest
//! free rank. Every later admission bumps the epoch once.

use crate::socket::{LinkStats, SocketInfo};
use crate::Rank;
use std::sync::Arc;

/// A membership change made by an admission after the initial accept,
/// drained with [`FleetAcceptor::poll_events`](crate::FleetAcceptor::poll_events)
/// and fed to the master scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MembershipEvent {
    /// A held rank dialed in again — its own process after a broken
    /// link, or a replacement: the fleet epoch was bumped and anything
    /// the old incarnation still held must be rolled back and its late
    /// DONEs fenced.
    Rejoined {
        /// The rank being taken over.
        rank: u32,
        /// The new fleet epoch the incarnation was admitted under.
        epoch: u64,
    },
    /// A brand-new slave was admitted mid-run (a free rank, or the
    /// table grew).
    Joined {
        /// The new slave's rank.
        rank: u32,
        /// The fleet epoch it was admitted under.
        epoch: u64,
    },
}

/// The slave holding a rank: its session (0 for a slave thread of this
/// process) and its link's counters (`None` over channels).
#[derive(Clone, Debug, Default)]
struct Holder {
    session: u64,
    stats: Option<Arc<LinkStats>>,
}

/// What [`Membership::admit`] decided for one hello.
#[derive(Clone, Debug)]
pub struct Seat {
    /// The rank the hello was given.
    pub rank: u32,
    /// The fleet epoch the slave is admitted under.
    pub epoch: u64,
    /// The change to report; `None` during the initial accept.
    pub event: Option<MembershipEvent>,
    /// The counters of the rank's new link: a rejoin keeps its rank's.
    pub stats: Arc<LinkStats>,
}

/// Which session holds which rank of one fleet, the refused sessions,
/// the fleet epoch and the rank rule (see the module docs).
#[derive(Debug)]
pub struct Membership {
    /// Row `r` is rank `r`'s; row 0, the master's, is never held.
    rows: Vec<Option<Holder>>,
    /// Sessions of released or replaced slave processes.
    refused: Vec<u64>,
    epoch: u64,
    /// Rejoins keep a lost rank, and admissions may grow the table.
    elastic: bool,
}

impl Membership {
    /// `n_slaves` free rows for a socket fleet to accept into. An elastic
    /// table starts at epoch 1, a fixed one at 0 (the in-process
    /// transport's epochless runs).
    pub fn new(n_slaves: usize, elastic: bool) -> Self {
        Membership {
            rows: vec![None; n_slaves + 1],
            refused: Vec::new(),
            epoch: u64::from(elastic),
            elastic,
        }
    }

    /// A fixed table whose `n_slaves` rows are held by slave threads of
    /// this process.
    pub fn local(n_slaves: usize) -> Self {
        let mut m = Membership::new(n_slaves, false);
        m.rows[1..].fill(Some(Holder::default()));
        m
    }

    /// Ranks in the table, the master's included.
    pub fn n_ranks(&self) -> usize {
        self.rows.len()
    }

    /// The fleet epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether a slave holds `rank`.
    pub fn is_held(&self, rank: u32) -> bool {
        self.rows.get(rank as usize).is_some_and(Option::is_some)
    }

    /// The held slave ranks, ascending.
    pub fn held(&self) -> Vec<u32> {
        (1..self.n_ranks() as u32)
            .filter(|&r| self.is_held(r))
            .collect()
    }

    /// The free slave ranks, ascending.
    pub fn free(&self) -> Vec<u32> {
        (1..self.n_ranks() as u32)
            .filter(|&r| !self.is_held(r))
            .collect()
    }

    /// Admit a hello from `session` naming `want` (`initial`: during the
    /// initial accept) by the rank rule. The row is the session's from
    /// here on; `None`: the hello is turned away and nothing changed.
    pub fn admit(&mut self, want: u32, session: u64, initial: bool) -> Option<Seat> {
        if self.refused.contains(&session) {
            return None;
        }
        let named = want as usize;
        let rank =
            if (1..self.rows.len()).contains(&named) && !(initial && self.rows[named].is_some()) {
                named
            } else if let Some(i) = self.rows[1..].iter().position(Option::is_none) {
                i + 1
            } else if self.elastic && !initial {
                self.rows.push(None);
                self.rows.len() - 1
            } else {
                return None;
            };
        let old = self.rows[rank].take();
        if let Some(old) = old.as_ref().filter(|old| old.session != session) {
            self.refused.push(old.session);
        }
        let rejoin = old.is_some();
        let stats = old.and_then(|h| h.stats).unwrap_or_default();
        let stats_row = Some(stats.clone());
        self.rows[rank] = Some(Holder {
            session,
            stats: stats_row,
        });
        let r = rank as u32;
        let event = (!initial).then(|| {
            self.epoch += 1;
            let epoch = self.epoch;
            if rejoin {
                MembershipEvent::Rejoined { rank: r, epoch }
            } else {
                MembershipEvent::Joined { rank: r, epoch }
            }
        });
        Some(Seat {
            rank: r,
            epoch: self.epoch,
            event,
            stats,
        })
    }

    /// `rank`'s slave cannot be reached (a send to it failed). A fixed
    /// table frees the row; an elastic one keeps it held, so the rank is
    /// dark and its slave may rejoin.
    pub fn lose(&mut self, rank: u32) {
        if !self.elastic {
            if let Some(row) = self.rows.get_mut(rank as usize) {
                *row = None;
            }
        }
    }

    /// Free `rank` (its slave was drained) and refuse its session, so the
    /// process can take back neither this rank nor a free one.
    pub fn release(&mut self, rank: u32) {
        if let Some(old) = self.rows.get_mut(rank as usize).and_then(Option::take) {
            self.refused.push(old.session);
        }
    }

    /// The master's view of its links: rank 0, the table's size and
    /// epoch, and the counters of every held rank's link.
    pub fn socket_info(&self) -> SocketInfo {
        let links = self.rows.iter().enumerate().filter_map(|(r, row)| {
            let stats = row.as_ref()?.stats.clone()?;
            Some((Rank(r as u32), stats))
        });
        SocketInfo {
            rank: Rank(0),
            n_ranks: self.rows.len(),
            links: links.collect(),
            epoch: self.epoch,
            session: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::socket::ANY_RANK;

    /// An elastic table whose initial accept admitted sessions 11 and 12
    /// to ranks 1 and 2.
    fn elastic_pair() -> Membership {
        let mut m = Membership::new(2, true);
        for (want, session) in [(1, 11), (2, 12)] {
            let seat = m.admit(want, session, true).unwrap();
            assert_eq!((seat.rank, seat.epoch, seat.event), (want, 1, None));
        }
        m
    }

    #[test]
    fn the_initial_accept_honours_a_free_named_rank_and_bumps_nothing() {
        let mut m = Membership::new(3, false);
        let seat = m.admit(2, 5, true).unwrap();
        assert_eq!((seat.rank, seat.epoch, seat.event), (2, 0, None));
        // A second hello for a held rank, or none in range, takes the
        // lowest free rank, and replaces nobody.
        assert_eq!(m.admit(2, 6, true).unwrap().rank, 1);
        assert_eq!(m.admit(9, 7, true).unwrap().rank, 3);
        assert_eq!(m.epoch(), 0);
        assert!(m.free().is_empty());
        // Full, and the initial accept never grows.
        assert!(m.admit(ANY_RANK, 8, true).is_none());
        assert_eq!(m.n_ranks(), 4);
        m.release(2);
        assert!(m.admit(2, 5, false).is_none(), "session 5 held rank 2");
    }

    #[test]
    fn the_same_session_rejoins_and_keeps_its_counters() {
        let mut m = elastic_pair();
        let before = m.socket_info().links[0].1.clone();
        let seat = m.admit(1, 11, false).unwrap();
        assert_eq!(seat.rank, 1);
        assert_eq!(
            seat.event,
            Some(MembershipEvent::Rejoined { rank: 1, epoch: 2 })
        );
        assert!(Arc::ptr_eq(&seat.stats, &before));
    }

    #[test]
    fn a_different_session_replaces_the_holder_which_is_refused() {
        let mut m = elastic_pair();
        let seat = m.admit(2, 99, false).unwrap();
        assert_eq!(
            seat.event,
            Some(MembershipEvent::Rejoined { rank: 2, epoch: 2 })
        );
        assert!(m.admit(2, 12, false).is_none(), "the zombie is turned away");
        assert!(m.admit(ANY_RANK, 12, false).is_none());
        assert_eq!(m.epoch(), 2, "a refusal bumps nothing");
    }

    #[test]
    fn joins_take_a_named_free_rank_then_the_lowest_then_grow() {
        let mut m = elastic_pair();
        m.release(1);
        m.release(2);
        let seat = m.admit(2, 30, false).unwrap();
        assert_eq!(
            seat.event,
            Some(MembershipEvent::Joined { rank: 2, epoch: 2 })
        );
        let seat = m.admit(7, 31, false).unwrap();
        assert_eq!(
            seat.event,
            Some(MembershipEvent::Joined { rank: 1, epoch: 3 })
        );
        let seat = m.admit(1, 31, false).unwrap();
        assert_eq!(
            seat.event,
            Some(MembershipEvent::Rejoined { rank: 1, epoch: 4 })
        );
        // Nothing free: an elastic table grows by one row.
        let seat = m.admit(ANY_RANK, 32, false).unwrap();
        assert_eq!((seat.rank, m.n_ranks()), (3, 4));
        assert_eq!(
            seat.event,
            Some(MembershipEvent::Joined { rank: 3, epoch: 5 })
        );
        assert_eq!(m.held(), [1, 2, 3]);
    }

    #[test]
    fn a_joiner_on_a_released_rank_gets_fresh_counters() {
        let mut m = elastic_pair();
        let old = m.socket_info().links[0].1.clone();
        m.release(1);
        let seat = m.admit(1, 40, false).unwrap();
        assert!(!Arc::ptr_eq(&seat.stats, &old));
    }

    #[test]
    fn a_released_session_is_refused() {
        let mut m = elastic_pair();
        m.release(1);
        m.release(1); // a free row releases nothing
        assert_eq!(m.free(), [1]);
        assert!(m.admit(1, 11, false).is_none());
        assert_eq!(m.epoch(), 1);
        assert_eq!(m.free(), [1]);
    }

    #[test]
    fn lose_frees_a_fixed_row_and_keeps_an_elastic_one_dark() {
        let mut fixed = Membership::local(2);
        fixed.lose(2);
        assert_eq!((fixed.held(), fixed.free()), (vec![1], vec![2]));
        let mut elastic = elastic_pair();
        elastic.lose(2);
        assert_eq!(elastic.held(), [1, 2]);
        assert_eq!(
            elastic.admit(2, 12, false).unwrap().rank,
            2,
            "it may rejoin"
        );
    }

    #[test]
    fn the_socket_view_lists_held_links_only() {
        assert!(Membership::local(2).socket_info().links.is_empty());
        let mut m = elastic_pair();
        m.release(1);
        let info = m.socket_info();
        assert_eq!((info.n_ranks, info.epoch), (3, 1));
        assert_eq!(info.links.iter().map(|(r, _)| r.0).collect::<Vec<_>>(), [2]);
    }
}
