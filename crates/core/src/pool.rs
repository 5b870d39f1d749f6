//! The `DshmPool` abstraction: the API surface shared by Gengar and the
//! comparator systems it is evaluated against.

use crate::addr::GlobalPtr;
use crate::client::GengarClient;
use crate::error::GengarError;

/// A distributed shared (hybrid) memory pool, from a client's perspective.
///
/// [`GengarClient`] implements this — on a comparator-shaped cluster it *is*
/// that comparator's client — as does the bench crate's client-side cache,
/// so workloads (YCSB, MapReduce, microbenchmarks) run unchanged against
/// every design point.
pub trait DshmPool {
    /// Allocates `size` payload bytes on `server`.
    ///
    /// # Errors
    ///
    /// Pool exhaustion, oversized objects, transport failures.
    fn alloc(&mut self, server: u8, size: u64) -> Result<GlobalPtr, GengarError>;

    /// Frees an allocated object.
    ///
    /// # Errors
    ///
    /// Invalid address, double free, transport failures.
    fn free(&mut self, ptr: GlobalPtr) -> Result<(), GengarError>;

    /// Reads `buf.len()` bytes at `ptr + offset`.
    ///
    /// # Errors
    ///
    /// Bounds violations, transport failures.
    fn read(&mut self, ptr: GlobalPtr, offset: u64, buf: &mut [u8]) -> Result<(), GengarError>;

    /// Writes `data` at `ptr + offset`. Durable when this returns.
    ///
    /// # Errors
    ///
    /// Bounds violations, transport failures.
    fn write(&mut self, ptr: GlobalPtr, offset: u64, data: &[u8]) -> Result<(), GengarError>;

    /// Atomic compare-and-swap on an 8-byte-aligned word of the object,
    /// returning the previously observed value.
    ///
    /// # Errors
    ///
    /// Bounds/alignment violations, transport failures.
    fn cas_u64(
        &mut self,
        ptr: GlobalPtr,
        offset: u64,
        expected: u64,
        new: u64,
    ) -> Result<u64, GengarError>;

    /// Servers reachable through this handle.
    fn servers(&self) -> Vec<u8>;

    /// Visibility barrier: when this returns, every write this handle has
    /// issued is visible to *other* clients' reads (for Gengar, waits for
    /// the proxy to drain this client's staged writes). Defaults to a
    /// no-op for designs whose writes are immediately visible.
    ///
    /// # Errors
    ///
    /// Transport failures.
    fn barrier(&mut self) -> Result<(), GengarError> {
        Ok(())
    }
}

impl<P: DshmPool + ?Sized> DshmPool for Box<P> {
    fn alloc(&mut self, server: u8, size: u64) -> Result<GlobalPtr, GengarError> {
        (**self).alloc(server, size)
    }

    fn free(&mut self, ptr: GlobalPtr) -> Result<(), GengarError> {
        (**self).free(ptr)
    }

    fn read(&mut self, ptr: GlobalPtr, offset: u64, buf: &mut [u8]) -> Result<(), GengarError> {
        (**self).read(ptr, offset, buf)
    }

    fn write(&mut self, ptr: GlobalPtr, offset: u64, data: &[u8]) -> Result<(), GengarError> {
        (**self).write(ptr, offset, data)
    }

    fn cas_u64(
        &mut self,
        ptr: GlobalPtr,
        offset: u64,
        expected: u64,
        new: u64,
    ) -> Result<u64, GengarError> {
        (**self).cas_u64(ptr, offset, expected, new)
    }

    fn servers(&self) -> Vec<u8> {
        (**self).servers()
    }

    fn barrier(&mut self) -> Result<(), GengarError> {
        (**self).barrier()
    }
}

impl DshmPool for GengarClient {
    fn alloc(&mut self, server: u8, size: u64) -> Result<GlobalPtr, GengarError> {
        GengarClient::alloc(self, server, size)
    }

    fn free(&mut self, ptr: GlobalPtr) -> Result<(), GengarError> {
        GengarClient::free(self, ptr)
    }

    fn read(&mut self, ptr: GlobalPtr, offset: u64, buf: &mut [u8]) -> Result<(), GengarError> {
        GengarClient::read(self, ptr, offset, buf)
    }

    fn write(&mut self, ptr: GlobalPtr, offset: u64, data: &[u8]) -> Result<(), GengarError> {
        GengarClient::write(self, ptr, offset, data)
    }

    fn cas_u64(
        &mut self,
        ptr: GlobalPtr,
        offset: u64,
        expected: u64,
        new: u64,
    ) -> Result<u64, GengarError> {
        GengarClient::cas_u64(self, ptr, offset, expected, new)
    }

    fn servers(&self) -> Vec<u8> {
        self.server_ids()
    }

    fn barrier(&mut self) -> Result<(), GengarError> {
        self.drain_all()
    }
}
