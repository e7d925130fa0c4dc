package repro.core

import java.util.Arrays
import org.scalacheck.{Gen, Prop, Test}
import org.scalatest.funsuite.AnyFunSuite
import repro.data.{ERDataGen, ERDataset}
import repro.text.Tokenizer
import repro.util.Rnd

/** The profile-based featurizer must give exactly the doubles of the
  * string-set reference it replaced, on every generator and on odd records.
  */
class PairFeaturesSpec extends AnyFunSuite {

  private def sameBits(a: Array[Double], b: Array[Double]): Boolean = Arrays.equals(a, b)

  private val datasets: Seq[(String, () => ERDataset)] = Seq(
    "walmartAmazon" -> (() => ERDataGen.walmartAmazon(scale = 0.15)),
    "amazonGoogle" -> (() => ERDataGen.amazonGoogle(scale = 0.15)),
    "abtBuy" -> (() => ERDataGen.abtBuy(scale = 0.15)),
    "dblpAcm" -> (() => ERDataGen.dblpAcm(scale = 0.15)),
    "dblpScholar" -> (() => ERDataGen.dblpScholar(scale = 0.15)),
    "multilingual" -> (() => ERDataGen.multilingualDefault(scale = 0.15)),
  )

  for ((name, make) <- datasets)
    test(s"profile scalars equal the string-set reference bit for bit on $name") {
      val ds = make()
      val idf = PairFeatures.idfFrom((ds.r ++ ds.s).map(_.tokenSet))
      val ref = new ReferencePairFeaturizer(idf)
      val f = new PairFeaturizer(idf)
      val dict = new TrigramDict
      val rProf = ds.r.map(rec => f.profile(rec.attrs, dict))
      val sProf = ds.s.map(rec => f.profile(rec.attrs, dict))
      val g = new Rnd.Gen(Rnd.hash64(name))
      val pairs = ds.dups.toSeq.sorted ++
        Seq.fill(4000)((g.nextInt(ds.r.size), g.nextInt(ds.s.size)))
      pairs.foreach { case (r, s) =>
        val expected = ref.scalars(ds.r(r).attrs, ds.s(s).attrs)
        assert(sameBits(f.scalars(rProf(r), sProf(s)), expected), s"pair ($r, $s) via shared profiles")
        assert(sameBits(f.scalars(ds.r(r).attrs, ds.s(s).attrs), expected), s"pair ($r, $s) via attributes")
      }
    }

  private val token: Gen[String] = Gen.frequency(
    3 -> Gen.oneOf("cam", "camera", "pro", "x", "7", "2000", "xj2000", "xj200", "a1", "the"),
    2 -> Gen.oneOf("café", "straße", "ñandú", "λόγος", "Ünïcödé", "日本", "é", "ß"),
    2 -> Gen.numStr.map(_.take(5)),
    1 -> Gen.alphaNumChar.map(_.toString),
    1 -> Gen.const(""),
  )

  private val attr: Gen[String] = for {
    n <- Gen.choose(0, 7)
    toks <- Gen.listOfN(n, token)
    sep <- Gen.oneOf(" ", "-", ", ", "  ", "/")
  } yield toks.mkString(sep)

  private val record: Gen[Seq[String]] = Gen.choose(0, 3).flatMap(n => Gen.listOfN(n, attr))

  test("profile scalars equal the reference on empty, tiny, numeric, repeated and non-ASCII records (scalacheck)") {
    val prop = Prop.forAll(record, record) { (r, s) =>
      val idf = PairFeatures.idfFrom(Seq(Tokenizer.recordTokens(r).toSet, Tokenizer.recordTokens(s).toSet,
                                         Set("cam", "pro", "2000")))
      Seq(Map.empty[String, Double], idf).forall { m =>
        sameBits(new PairFeaturizer(m).scalars(r, s), new ReferencePairFeaturizer(m).scalars(r, s))
      }
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(2000), prop)
    assert(res.passed, res.status.toString)
  }
}
