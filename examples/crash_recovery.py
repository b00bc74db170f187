"""Transactions, crash and restart recovery on the ESM substrate.

MOOD inherits concurrency control and recovery from the Exodus Storage
Manager; this example drives the reproduction's WAL through a commit, an
abort, and a crash with in-flight work.

Run:  python examples/crash_recovery.py
"""

from repro.storage.manager import StorageManager


def main() -> None:
    sm = StorageManager(buffer_capacity=32)
    accounts = sm.create_file("accounts")

    # --- committed work survives a crash --------------------------------------
    with sm.begin() as txn:
        alice = sm.insert(accounts, b"alice:100", txn)
        bob = sm.insert(accounts, b"bob:50", txn)
    print("committed two accounts")

    # --- an abort undoes its changes immediately --------------------------------
    txn = sm.begin()
    sm.update(accounts, alice, b"alice:0", txn)
    txn.abort()
    print("after abort, alice =", sm.read(accounts, alice).decode())

    # --- crash with an uncommitted transfer in flight -----------------------------
    transfer = sm.begin()
    sm.update(accounts, alice, b"alice:70", transfer)
    sm.update(accounts, bob, b"bob:80", transfer)
    print("in-flight transfer written (uncommitted)...")
    sm.crash()
    print("CRASH: buffers and lock table lost; log survives")

    report = sm.restart()
    print(f"recovery: winners={report.winners} losers={report.losers} "
          f"redone={report.redone} undone={report.undone}")
    print("alice =", sm.read(accounts, alice).decode())
    print("bob   =", sm.read(accounts, bob).decode())

    # --- a second crash right after recovery changes nothing -----------------------
    sm.crash()
    report = sm.restart()
    print(f"CRASH again: losers={report.losers} redone={report.redone}")
    print("alice =", sm.read(accounts, alice).decode(), "(unchanged)")
    print("bob   =", sm.read(accounts, bob).decode(), "(unchanged)")

    # --- checkpoints bound the redo work -------------------------------------------
    sm.checkpoint()
    with sm.begin() as txn:
        sm.insert(accounts, b"carol:25", txn)
    sm.crash()
    report = sm.restart()
    print(f"after checkpoint, recovery redid only {report.redone} update(s)")
    print("records now:",
          [payload.decode() for _, _, payload in sm.scan([accounts])])


if __name__ == "__main__":
    main()
