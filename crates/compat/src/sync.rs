//! Poison-free synchronization primitives with the `parking_lot` API shape.
//!
//! `std::sync` locks return `Result`s to surface poisoning; the simulation
//! treats a panicked process as a reportable event, not a reason to wedge
//! every other lock holder, so these wrappers recover the guard from a
//! poisoned lock and hand it back. Call sites write `m.lock()`, not
//! `m.lock().unwrap()`.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Mutual exclusion, `parking_lot`-shaped: [`Mutex::lock`] returns the
/// guard directly.
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking the current thread until it is free.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())),
        }
    }

    /// Acquire the lock only if it is free right now.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: Some(g) }),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(MutexGuard {
                inner: Some(e.into_inner()),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_tuple("Mutex").field(&&*g).finish(),
            None => f.write_str("Mutex(<locked>)"),
        }
    }
}

/// Guard returned by [`Mutex::lock`]. The `Option` is only ever `None`
/// transiently inside [`Condvar::wait`], which must move the underlying
/// std guard by value.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner
            .as_ref()
            .expect("guard taken during condvar wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner
            .as_mut()
            .expect("guard taken during condvar wait")
    }
}

/// Condition variable paired with [`Mutex`]. Unlike `std`, `wait` takes the
/// guard by `&mut` (the `parking_lot` shape), so waiting in a loop does not
/// fight the borrow checker over guard re-binding.
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    #[allow(clippy::new_without_default)]
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Atomically release the guard's lock and block until notified, then
    /// re-acquire. Spurious wakeups are possible; callers re-check their
    /// predicate (or use [`Condvar::wait_while`]).
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.inner.take().expect("guard already taken");
        guard.inner = Some(self.inner.wait(g).unwrap_or_else(|e| e.into_inner()));
    }

    /// Block until `cond` returns false (re-checked on every wakeup).
    pub fn wait_while<T, F>(&self, guard: &mut MutexGuard<'_, T>, mut cond: F)
    where
        F: FnMut(&mut T) -> bool,
    {
        while cond(&mut *guard) {
            self.wait(guard);
        }
    }

    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_basic_and_try_lock() {
        let m = Mutex::new(5u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 6);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert_eq!(*m.try_lock().unwrap(), 6);
        assert_eq!(m.into_inner(), 6);
    }

    #[test]
    fn mutex_recovers_from_poison() {
        let m = Arc::new(Mutex::new(0u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        // parking_lot semantics: the lock is usable afterwards, no unwrap.
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }
}
