"""The Function Manager in action: dynamic definition, late binding,
run-time schema changes (Section 2's central design argument).

Run:  python examples/dynamic_methods.py
"""

from repro import MoodDatabase
from repro.core.errors import FunctionRuntimeError


def main() -> None:
    db = MoodDatabase()
    db.execute("""
        CREATE CLASS Account TUPLE (
            owner String(32),
            balance Integer,
            bonus_rate Float
        )
    """)
    db.execute("CREATE CLASS PremiumAccount INHERITS FROM Account")
    db.execute("new Account <'ayse', 1000, 0.01>")
    db.execute("new PremiumAccount <'berk', 5000, 0.05>")

    # --- add a function while the 'server' is live ---------------------------
    # Only Account's shared object is (re)compiled; nothing else changes.
    db.execute("""
        CREATE METHOD Account::projected() Integer {
            return int(self.balance * (1 + self.bonus_rate))
        }
    """)
    fm = db.kernel.functions
    metrics = db.kernel.storage.metrics
    print("compiles so far:", int(metrics.value("functions.compiles")))
    result = db.query(
        "SELECT a.owner, a.projected() FROM Account a ORDER BY a.owner"
    )
    print("projected balances:", result.rows)

    # --- late binding: override in the subclass -------------------------------
    db.execute("""
        CREATE METHOD PremiumAccount::projected() Integer {
            return int(self.balance * (1 + self.bonus_rate) + 100)
        }
    """)
    result = db.query(
        "SELECT a.owner, a.projected() FROM Account a ORDER BY a.owner"
    )
    print("after the subclass override:", result.rows)

    # --- methods calling methods (still late bound) -----------------------------
    db.execute("""
        CREATE METHOD Account::doubled() Integer {
            return self.projected() * 2
        }
    """)
    result = db.query(
        "SELECT a.owner, a.doubled() FROM Account a ORDER BY a.owner"
    )
    print("doubled (dispatches projected() per class):", result.rows)

    # --- shared objects are cached within a scope -------------------------------
    before = metrics.snapshot()
    accounts = db.extent("Account")
    for account in accounts:
        db.invoke(account, "projected")
    counts = metrics.since(before)
    print(f"loads={int(counts.get('functions.loads', 0))} "
          f"cache_hits={int(counts.get('functions.cache_hits', 0))} "
          f"(one load per class per scope)")
    fm.end_scope()

    # --- errors from compiled code surface 'as if interpreted' -------------------
    db.execute("CREATE METHOD Account::crash() Integer { return 1 // 0 }")
    try:
        db.invoke(accounts[0], "crash")
    except FunctionRuntimeError as exc:
        print("caught by the kernel's Exception class:", exc)

    # --- updating a function takes effect immediately ----------------------------
    db.execute("CREATE METHOD Account::crash() Integer { return 42 }")
    print("after the fix, crash() returns:", db.invoke(accounts[0], "crash"))
    print("Account shared object version:",
          fm.shared_object_version("Account"))


if __name__ == "__main__":
    main()
