package repro.core

import java.nio.ByteBuffer
import java.security.MessageDigest

/** Golden-digest helper for end-to-end runs: the SHA-256 (first 8 bytes, in
  * hex) of the raw bits of a [[RunResult]]'s metrics — `roundStats`,
  * `candRecall`, `testPRF`, `allPRF` and `nLabeled`. Timings are excluded.
  */
object RunDigest {
  def apply(r: RunResult): String = {
    val buf = ByteBuffer.allocate(8 * (5 * r.roundStats.length + 8))
    def prf(x: PRF): Unit = { buf.putLong(x.tp); buf.putLong(x.fp); buf.putLong(x.fn) }
    r.roundStats.foreach { s =>
      buf.putLong(s.round.toLong); buf.putLong(s.nLabeled.toLong)
      Seq(s.candRecall, s.testF1, s.allF1).foreach(x => buf.putLong(java.lang.Double.doubleToRawLongBits(x)))
    }
    buf.putLong(java.lang.Double.doubleToRawLongBits(r.candRecall))
    prf(r.testPRF); prf(r.allPRF)
    buf.putLong(r.nLabeled.toLong)
    MessageDigest.getInstance("SHA-256").digest(buf.array()).take(8).map(b => f"$b%02x").mkString
  }
}
