"""Frozen seed-era payloads — rejected, while their reconstructions still hold.

The payload constants below were generated by the *seed* implementations
(single-stream DEFLATE lossless payloads, block-codec v1 SZ frames, and the
``BytesIO``-based checkpoint serializer) before the sharded v2 stage
existed; the ZFP v1 blob by the last commit that still had a v1 ZFP writer
(``RBCF`` frames at DEFLATE level 6).  They are checked in as base64 so the
contract is pinned against real old bytes, not a reconstruction of the old
encoders.

No reader for those formats remains — nothing persists a blob across a
``CACHE_VERSION`` bump — so the contract is now:

* one v1 blob of each kind (lossless, SZ, ZFP) is refused with
  ``ValueError("unsupported payload format version N")`` and never returns
  an array;
* the *reconstructions* the old code produced are what today's writer and
  reader still produce for the same input, pinned by SHA-256: the
  quantization codes never changed, only their container;
* the seed-era ``RPCK0001`` checkpoint container still deserializes.

Regenerating these constants is never correct.
"""

import base64
import hashlib

import numpy as np
import pytest

from repro.checkpoint.serialization import deserialize_checkpoint
from repro.compression.base import CompressedBlob
from repro.compression.errorbounds import ErrorBound
from repro.compression.lossless import ZlibCompressor
from repro.compression.sharded import SHARDED_FORMAT_VERSION
from repro.compression.sz import SZCompressor
from repro.compression.zfp import ZFPCompressor

_SMOOTH_B64 = (
    "AAAAAAAAAAAnZtD5oL/4PxLDvSN9ffk/+CNPQCw5+j/PjI0ISPL6P5SqWmJsqPs/D9AqlTdb"
    "/D/dTQd9Sgr9P85fv7tItf0/HR8v6Nhb/j+KKoW7pP3+P58BcTxZmv8/aLMSdNMYAEDuvY3s"
    "oGEAQARawvVwpwBAwpOtbyHqAEDnpAA8kikBQKDAsUylZQFAls9HsT6eAUC83tuiRNMBQJHH"
    "y46fBAJACV4aIDoyAkBpNnpHAVwCQOHbAELkgQJA3haBntSjAkDGp4tBxsECQEifFmiv2wJA"
    "rEDMqIjxAkCxGwP0TAMDQILKYZL5EANAeXwxIo4aA0B+L2OTDCADQIEvTCJ5IQNALiUfUdoe"
    "A0CIqifgOBgDQP8Ez8SfDQNAkUhxHxz/AkAwxgowvewCQNRAxkmU1gJA3vd0xbS8AkCNIvry"
    "M58CQAD/swkpfgJAGhftF61ZAkDh1mDx2jECQMoB3xzPBgJA+P4ZwafYAUCkV6yQhKcBQD0e"
    "YrWGcwFAWkjTutA8AUBNUVx4hgMBQI2+gvrMxwBAnlrTa8qJAEBELkj9pUkAQIVqRM6HBwBA"
    "KDFpqDGH/z/G/cKDBfz+P5N4CN3fbf4/kkdUeRbd/T/8yO0BAEr9P6wEp9HztPw/sSkxwkke"
    "/D/4U4T5WYb7P58Xd7d87fo/EAGiIwpU+j+S26obWrr5PyQjEwLEIPk/H4ukjZ6H+D9E+ZWZ"
    "P+/3Pwe9gvb7V/c/xyVNPCfC9j8s6ASdEy72P/kD6bgRnPU/yBCcc3AM9T9zAaHKfH/0P5GM"
    "Na2B9fM/jXye1cdu8z8INPmjlevyP4C0pPoubPI/n21THNXw8T9LDNaLxnnxP9Rpru0+B/E/"
    "bZ5463aZ8D/0FjcZpDDwPwPLGrnxme8/2q7oq0jd7j8NVeGXpCvuP6EOqTBWhe0/SF8lL6fq"
    "7D/oMVI02lvsP5DgTrAq2es/sJipzcxi6z8xMu1g7fjqP9Ifc9yxm+o/IbJ4SDhL6j9yfnQ/"
    "lwfqP0BZpu7d0Ok/DvnZGhSn6T8AAAAAAAAAAC8JzyxJeuk/fZOj9jJ36T+NgMQr4oDpP0lr"
    "wl06l+k/XRKXJxi66T80iC9OUenpP6EMmuS0JOo/qI28cwts6j+a/XYlF7/qP/nwEvOTHes/"
    "L0/g1jeH6z8MT90As/vrP957Rg6weuw/UxrqQ9QD7T/Q9RjLv5btP8VoDfENM+4/BFSgaFXY"
    "7j8TtCKOKIbvP3jLmNYKHvA/RLEspNN88D+RUS4xMt/wP0j9eGToRPE/EiJmsLat8T/Wy185"
    "XBnyP/3C6vyWh/I/BFoR+SP48j9c7xdUv2rzP1soZIQk3/M/efZ/eA5V9D+jkSG/N8z0P4+4"
    "Ia9aRPU/5LpJjzG99T87EOO9djb2PyGK8tfkr/Y/jIYJ4DYp9z8A65dkKKL3P8weqqV1Gvg/"
    "ubP+uduR+D9g8F+zGAj5P1T9LcLrfPk/Sg4HWBXw+T+9gXtJV2H6P+ebvO500Po/QDU1QzM9"
    "+z+8b/wDWaf7PwZJE82uDvw/IapeNf9y/D+VZVDpFtT8P7RsMsTEMf0/3mAI6NmL/T/Jh/zT"
    "KeL9P2wQTnmKNP4/pYC3TtSC/j/2EUVi4sz+P620k2mSEv8/j2Ry0MRT/z90b+DFXJD/P/pE"
    "ZEdAyP8/8123Klj7/z8LYeISyBQAQNJUfGprKQBAsFfw3447AEAafg6uLEsAQHrkUYdAWABA"
    "wsGslcdiAEAOaYB5wGoAQNBMw0crcABAHIlXhwlzAECA65QtXnMAQDfdCZotcQBALQB3kX1s"
    "AEAluAk4VWUAQOI+2gq9WwBAlESy2L5PAECLfCG6ZUEAQGbR5Qi+MABA8VKtVtUdAEBUQzhj"
    "uggAQPTvwyP64v8/eBovvVyw/z8uZIekwHn/Pyslbu1LP/8/70gqlCYB/z9mo5pjer/+P4pe"
    "Udpyev4/JzrpDj0y/j9UqaWTB+f9P6Agb1kCmf0/CSY9kl5I/T+q5v+STvX8P8s+G7UFoPw/"
    "rj+FN7hI/D/UUZofm+/7P2scuRnklPs/q1m4Wck4+z+YtEh7gdv6PwAAAAAAAAAAWrRwG0Ye"
    "+j+NYmy8wL75P4/DF0XqXvk/IJhMgPn++D/Wck3lJJ/4P4chi3miP/g/sc/gsqfg9z8Y5FZa"
    "aYL3PyYyfG8bJfc/zqZkDPHI9j8EIFxKHG72P/6cWyfOFPY/gm5ObDa99T9BgDSUg2f1Pyw/"
    "LrTiE/U/mgZ+ZH/C9D9pXYqqg3P0P6am6+MXJ/Q/Pz+PsmLd8z/HUvnpiJbzP9j+rX2tUvM/"
    "JabJcPER8z8ims/Gc9TyP0qGtXVRmvI/6kgxWaVj8j/eJE4niDDyP6p1TWYQAfI/LkzWY1LV"
    "8T+0lnYtYK3xP22zd4pJifE/24gH9xtp8T9Cfbag4kzxP3vkSWSmNPE/1LvhzG0g8T+wzW8U"
    "PRDxPwqbfSUWBPE/gLA9nvj78D/ZVuTU4ffwP0DdQt3M9/A/UQ2gj7L78D94r8eQiQPxPyhh"
    "SltGD/E/Ol7mSdse8T8qRBGjODLxP7JAmqVMSfE/2I1blgNk8T+klPHOR4LxP+KMbc0BpPE/"
    "LPT4RBjJ8T+vwV4vcPHxP7bNbt/sHPI/jn0vFHBL8j8OZdEM2nzyPz43WJ0JsfI/ChDsQ9zn"
    "8j/A2MU+LiHzPzhJqaLaXPM/uM/ecbua8z+qeZ+zqdrzPyzQ5It9HPQ/tXuOUw5g9D85a8+w"
    "MqX0P4As1K/A6/Q/hByU240z9T9XGL9Wb3z1P89gufQ5xvU/m3SXUsIQ9j9fvgvw3Fv2P58V"
    "OEhep/Y/RDpV6hrz9j+doyKS5z73P1IzEUCZivc/NJwbUQXW9z8nkz+WASH4Pzsti2tka/g/"
    "AyKyzgS1+D8SAx91uv34P4nZdOFdRfk/HQF2eMiL+T8Tg0WV1ND5P+6k+JxdFPo/jNRuEUBW"
    "+j/MlWajWZb6P3qVxkOJ1Po/LogSNK8Q+z+9AgQWrUr7P+cEQPplgvs/DXwibr63+z+WlJmI"
    "nOr7P4JDC/bnGvw/uAZAA4pI/D+icU6nbXP8P+Wzg4x/m/w/YOFFGK7A/D/qXO1x6eL8P8Rh"
    "k4gjAv0/AAAAAAAAAADajISrZDf9P3LhWKJYTf0/lNuALyVg/T8QCzZbxW/9P26MQAI2fP0/"
    "imVz1HWF/T+LXCNShYv9P32Om8hmjv0/HpeTTR6O/T9qpKu5sYr9PzxW86EohP0/PMyAUIx6"
    "/T9Wwh285239P9UVEX9HXv0/dIILzblL/T+Z1z5oTjb9P2xRp5UWHv0/giiPECUD/T/vy1T9"
    "jeX8P56VfNtmxfw/Nh8Xd8ai/D8YroXZxH38P9p3pjl7Vvw/B8Vy6wMt/D9fNhlPegH8Pxqp"
    "nr/60/s/PGgQgaKk+z+4hFKuj3P7PyBTlSbhQPs/3yt9erYM+z9OowfZL9f6P0aAOfxtoPo/"
    "yMKgFZJo+j8fEba6vS/6P37fKNES9vk/MJ4he7O7+T+sK4UDwoD5P7iyRMpgRfk/GQLFMLIJ"
    "+T/RSWiG2M34P/gCRfX1kfg/bpoUbyxW+D/YQ2SanRr4P0oiEsBq3/c/zLYgubSk9z+/Qerc"
    "m2r3P+B8ve8/Mfc/DsfsEcD49j+xiVivOsH2P31KfW/NivY/KoINJpVV9j9/8x7ErSH2P4vc"
    "8kky7/U/5/ZfuTy+9T831OQI5o71P824aBdGYfU/baiwoHM19T+Q6Y0yhAv1P4DQyiKM4/Q/"
    "mC/ahZ699D84VE0mzZn0PwkAFH0oePQ/bVaJqr9Y9D8nPFBwoDv0P40tASzXIPQ/uhWr0m4I"
    "9D+TNijtcPLzPwq4R5Xl3vM/XPvLc9PN8z9zVj2/P7/zP1ZkkDsus/M//aCeOqGp8z9lkm+d"
    "maLzP+BNUNYWnvM/yre26xac8z8qbe17lpzzP/XahMGQn/M/Hp2FmP+k8z982V+E26zzPzPn"
    "krYbt/M/lTMIFrbD8z/0+BtHn9LzP3gDTrTK4/M/IGuUlyr38z+O2UkEsAz0P7GlsPFKJPQ/"
    "Q8cDRuo99D9CYA7ie1n0P75bQq3sdvQ/hGZGoiiW9D/PUPPbGrf0P4K3uKKt2fQ/Gadgesr9"
    "9D9mxCkwWiP1P8dkL+lESvU/L+MWMXJy9T8AAAAAAAAAADJGgfYvxvU/xwUyE43x9T+pJtIb"
    "xh32P4ep7X/ASvY/XmpocWF49j8aYRf0jab2P57oV+0q1fY/xz2cMx0E9z9ZfeSdSTP3PxGD"
    "GxOVYvc/UStPmeSR9z97nLtkHcH3PzVmoeYk8Pc/6HDe2+Ae+D9L6UFbN034P+GIk+MOe/g/"
    "+dRGaU6o+D9GK9Nj3dT4P+OyqdqjAPk//ozCcYor+T+W57p1elX5P6Xefeddfvk/tmVyhx+m"
    "+T/Awyjgqsz5P1F9glDs8fk/Pt5PFdEV+j/0ql5SRzj6P+vZ9Ro+Wfo/GpG6eaV4+j91/vp3"
    "bpb6P38AXCSLsvo/LvLmmO7M+j9YTHUAjeX6P00veJtb/Po/DkcaxFAR+z9a3brxYyT7P1ZN"
    "wbuNNfs/jWzI28dE+z8p3SEvDVL7P1ycsbdZXfs/LX4inKpm+z9HpXQn/m37P2Nh58dTc/s/"
    "dTlADax2+z+6P3GmCHj7P+4koV5sd/s/+dSXGdt0+z9vupLPWXD7P7oWhIjuafs//yrBVqBh"
    "+z8WOSNRd1f7P72sn4x8S/s/lwJcFbo9+z9zRULnOi77P205G+YKHfs/q4gz1TYK+z8ffpFO"
    "zPX6P8IPwbnZ3/o/DSs8Qm7I+j+LZHXNma/6P+NUi/Bslfo/LxSr5fh5+j+EZiiBT136P5FK"
    "UiaDP/o/A7YKvKYg+j/WYCihzQD6P4+TqaAL4Pk/C/q+5XS++T+UhrXvHZz5P0B3xoUbefk/"
    "I5HUqoJV+T/zoh2RaDH5P8Na543iDPk/XHAuDQbo+D+jF1+F6ML4Pz6dHWufnfg/f/klJUB4"
    "+D8EDUkA4FL4Pz4djiOULfg/wQZ/hHEI+D/ld6XbjOP3P2VeP5n6vvc/JYkw2s6a9z9SUTdd"
    "HXf3P8ftaXj5U/c/nOABD3Yx9z+cuHqHpQ/3P7MnCcKZ7vY/3DRvD2TO9j9yEjIoFa/2P17i"
    "NSS9kPY/t3DDcmtz9j9/qfvSLlf2P+5JvEwVPPY/EAf5KSwi9j+5G4zwfwn2PwAAAAAAAAAA"
    "wvzaWgzc9T9EttsEWsf1P8EXyJsOtPU/GH0whTKi9T8SRrtHzZH1Pytlc4jlgvU/SmqbCIF1"
    "9T9dVgWkpGn1P1Q5709UX/U/eFBkGpNW9T8rESIqY0/1P+pBAL/FSfU/b/vaMrtF9T/eI/36"
    "QkP1PxuwCapbQvU/qrJh8gJD9T9J/ASpNUX1P1HR6sjvSPU/SPfPdixO9T+zIHcF5lT1P8iB"
    "WPoVXfU/gx+9ErVm9T/rM0JJu3H1P+LNwNsffvU/HqGVUdmL9T/Ny0SC3Zr1Pw=="
)

_ZLIB_PAYLOAD_B64 = (
    "eJw9l3lUTV3cx++QR6FUKEqzlKSU2YPvQTRQlESjIr1Cg0KDIilFhUZKKikpokkSaUD1UDLE"
    "oxJJpNJwu/fc4dx7671rve96zj/fdfbea+1z1v59P9/fptH+79HzeivIqeVD8XmNTni4AHyd"
    "HYThGgpt8QnSFuMUUoqc9h+9I8TMtwapq5xF6LaeGm41TYw3+2qfWDwUQ03D+Pdn5wlcNIh+"
    "kieeQDb92DrHjEkcKlc8/mEujRipSfiT40EjpJwaSP8CGtGQXOynNUgj+vNo65IW0YmcutLt"
    "+QfpRFqbeemGLDrx9GtXrtkHOpHY9PpSthSDkHFT0VxryiC8V4aa010YxPcu2qa+swziq9LZ"
    "rPZbDKKxIG5jYz2DsMhWOvSgi0HcI1ruxLIYRKkqk7OdySQiX3kkCeSZREiYifYlFSZx2vhA"
    "8gxNJnHWeLt2iBaTMNLVsO1UZxKxRXo9q+cyiUmpthfZskwi0eKYxvxJBrG0cdrSmj8Mop1o"
    "tEz5JNmXd/xlxVMGkaBNjS/LZhC0yXKZRacZhIrysHKxo+T7PrmzOk0YxCv6t/ltfzEI/sS8"
    "+oLPdCJvz70rUQV0Yr36/ofnA+mEk8WH6rfr6IS1rUvweSadSHgWSbU00Ygspw9HXl2gEWZG"
    "FuJ8SxoRfdjsTcxUGqFv4n3HJGYSjeKGc1NEE0gOlu7+5jOBJHP7EKVuMUTNw3SalRj3pAre"
    "sStEKF1k0mCpLgJ/V5TA8bwQ2cpBj8KGKcjTc3Wm2VNI6ipSdaoWYIHOLMYLTQE04vISsmL4"
    "MBOkpmOUh6k1kVzhHh6adK3X6TVwYfhb6sYsIy4EzIEqhUwSzfKZgf4zSATSb74KO8NBYvyK"
    "4rMkGwlhWR+bfNmQXi64lTo0joiKPMro6DiyfXbN/zjGwrYZn+IaQ1ho974/vGEqCz5ZwUMn"
    "08fAUVo1L2/pGJivVR6z0kfRef/3XYvuEcju/n41b/EIbsoVLnWIHobFPl3jgsE/+G1it7zT"
    "+Q+u9NiUGHQMoeRaYWvL/iGYmA67D/MH8V4j8Evp9UFolQVbrN42iIDTx3F16iAIx9sj3W8H"
    "ICfoUJldMID/twHNWKbN0DJ0AOHJt7imQQNIiHixuDdiAJZHGlzXXh2Aq+JVvbnVA1gea2xj"
    "OzCAmzMy+ioWDOJOwtPA6UcHkSE+qatcOwjBmCI7WW0Ixjt6Pq2KGcKMHd20cuEQvp7aKlcS"
    "+ge7VAY3tzOH8Zac+7o2bRgvD8myZJeNQMo+59DuzyOYVaF9Sf/8KIJfX/s0TX0MZqWGeR/C"
    "xpBoa2Ri+m0MFuJgz99mLChqe5VUFrPw6fW+NS7zxiFuGBSlxYxDyklBoMMfh8uosn3tYTac"
    "9T2jFnxjI4R7JlhuNwe3ErVqV7VwcLlK64GTGYm+asvLJjUk/pb/UXNyJRdaF8f/7XvARfx5"
    "mZ6Vi3igDV311M/loUW9KP+ECh+PyycedyXy4T62r3yutAD24iUNQ2ECWMlN3TtnTICas6cs"
    "93hQ6L/+dOT4WwrEihWbl60X4qmfiOlYIMRflrNa78uJoFXktmIyQITUgzsHlNpFqDhq+uKF"
    "iRhf3aV/d8SJ8U+M6MOiXjGOytuEXFw+gfyIRzbtkRPgKmzZ39sygeKKZO8kxUlc9gx4+2LX"
    "JI779bx0uTIJyszTnGieBNv1kcFe4SSme/QqNs+mEe/tww4fWUQjSvaMfbv0N41QOS1333Ab"
    "jQjts40h9kq4VH8vtWk/jZDzjgipO0wj3m5/br7Yn0bMv7AnRiaQRkQMpSxxk+iqbpmMJcdo"
    "xBJaUGL4URqhWyWzevdBGtG7oXNajTONSDEr+/xsB42IC9OqPriRRni9+yn9bCmNYNkVO3xU"
    "oxH2m1cfqJamEZzR5zpU7ySCVYxrXEomYeQZk1cXMonFur7D2zCJUQuDlIX0SXjdyjgQWivh"
    "q5ttZ0DoBPTWDsitN52AfWF+8tR+MXI0/RwZ6WLILFyf5GYhRtGvySQbUoTXG1QfTskR4T6i"
    "V1VZiNBum6FxfVSII/Mfz+tLEeKuY5XjP6uFuFZhcepsF/WfD5wq/FW3qlNI2H/0ad0zAS4/"
    "V94y6CaA5rXtEYIJPj4FWP9ckM1HjFZcSC74KG3rKSvo4WFun4OTdyQPC03D/FR1eXhz23MG"
    "q5kLKU0Xq/m+XExkOuu9mc1FpK/N0ZWSetsYsTzl3P+QMIRRRe8sEhl/nfY808CBt+vFonOB"
    "HNy+PfRDWY8D4HLZ/m42muwEA7FpbHyeKA4vtmND9/Y//iwFNrQz2hoD28dhdf7hCduMcQxa"
    "mDjmHxjH1wU2erFLx1F0wtpLnj4Oo+2fDth9ZKEi7eQSd4lvfMqDLlpeYKErdipP1ZuFTeGV"
    "Ob3bWTjVZ+l5e7mET0++t/hoslDS6jd7vTwL066H6ypJsRBRsj6LLxxDh0Nf+3feGIjuTd0t"
    "ErWVzblcJhkPftB05QKTBX0PK+etM1lY6/bLskudBQMzhVurTVkoIzLyt1uy8DnBOY3pyUJe"
    "CuuNeSQLvfE+rfQ8Fgw5fLO5/7DwoN7N2J/FQmWr77c/88dxKdx4tv+2ccgdfDejM2wcG1bt"
    "vSFTOo5p8n82f+kfR93nlxuMtNhYbVmY2+nCRlXb12NPMtgoCskuL+xkw/BtX1z4fA4enrq0"
    "S86dgzVH2kpM8zmIMGx/UDfEQdT8lK6EZST2zK118Asj0eb+mLOmkcT141ftGuS52Pds+tgX"
    "Zy6y56y2cCvgwmzt7kEVNhc3bmkn9W/gwW6ZApF+kYflmaq2Uz7xoJeMNLoWH38viTvieYQP"
    "pnbZG6mHkj6DqXGiWszHhY7j3123CKBGPxncHCfArHNbUtvfCjCSx890nU0hvt1XgXCg0JLq"
    "dcsxjUJoauPmC+0UjGIVlz+QF6KGIaVUbCVEvxRBHYwUQjZM2/fZIyHSUtJjMweFiNw8nduv"
    "IkLVXwTzoqT+c4/ZFPgEivCz/Fz8mesiuH/fMvd+nQiDLsPHBnpFeOGRHKvDEP/ng874qLue"
    "q8QI+L43d6+1GCldEca67mLIT1/p/NJPDN94grEyTIyLBwPbT0SLEeeiYxct4Vb4pevNXpfE"
    "UL+abK0u0cN5dx+XXhRjnQP7pn6URFsidsaHiuHQoPa030eMj3MUzpi7iXE8cnrr421ipP+7"
    "4ZDNSgn3bAtSldTFiNS/LK/LFGP0tb044acIWalhXV4vRVipoRzUmCvC3PvRHS/CRegMur3m"
    "lIMIU18GDDGXiLBv5bwdoXQRVAqzaqkPQqw7JH82N0+Iqii7+5cDhdDclbrwOyHEt8XhoZUz"
    "hLC5NbXD+F8KWyPWiHxyKDQ35MxJOkRBQ6GyusaYwulv+u8UuQIszdI6Vf5EgHuLo5kNEQJU"
    "lZm9cpec4zzGy6VlMgK8szx0/nMrH3zGFpKU5IRvxmw/Qwc+Pm/2zLghyQ8rbcW6w98keVKp"
    "+bgij4fajYNfrh/moSesZhQmPMg1/VGo43NRemHvg7X1XIRbhfu1XuTCIFJ2YepuLs6w1V8U"
    "a3ER92Xc0nSURD933+N1z0isau+T/nWJRGvVIeWtHiR87pTkBK4gcWUgwTRqOomIt6+0439w"
    "cM24MzqrhoPV9tYLW9M5kKHNDtcP5sDH4UJR7V4O9Nbt9M/5m4OEJXTDfzU5qJ5z972vNAfJ"
    "K/WH/cfZmFZlnvrzKxsuwteBH1rZCHRYX4taNhw8r/xtVM6GOCdr7c1CNg4m+d1Iz2Wjx3rn"
    "J6UsNl49qhxSymTDwGf4VJpEyc6o+ivZbKjfiL42mcdGWMe+qK57bCzrT6pUfcRG6jJppcrn"
    "bHD4qubZ79kIZtpUvPrBhuaRlKsGPDYudVhKlczgoDS/hGW1gIPNTcytg+s52OQu13vKkYNn"
    "zpuK/5yU+Npra65+GgdtO9ldKo84iHxUlVvcwcG8AvfQV2IOvF4sWuqkQ6LJ03jAzIqE8Q8l"
    "k4AA8j8fmG49yzWWcKBpiumsBBaJwoXvVRvVuIgpHD5TZ8WF2+FDxzyCuVDxUOYk3OYi6/ee"
    "YYOPXDStz1ymJsWDY3jfDctlPCicU52Vup8H28U70vsSeTiV+cRTrZ6HFV43fy0Y4+G3/9eu"
    "HnU+tg1sdF5lzcf32OQfcqf4ELRv9ba5w8fWxR8OdLfz8aOssPMWTYCJ+IZjFxcLkNZffSJ0"
    "twD5X8P7XU8LUHkwIEbjtgB1z/V7iloEsA2P3PmHJcCGrzvmvJtDgVPkZme+msJQB6mywZGC"
    "SmJ1SH4whRMTVJCvhDNnaC4L4soknBn/dW2khcLe7SdoCT8pWBsHX3cWUZAzV3mxU0EIp+5q"
    "1oEFQjhY1z9JWCFEwtHmriYzIRZ1axnL2gnhkln6yNFViCWntTOLvIQwzz+uN+EjxAGP/qZd"
    "Ev+dWEPI3jspRDWO3ZYOFmJkwU23o0FCyf9endd1XAi/6qQ2R3/JvFJU7Ii3EJMG9Q45HkIo"
    "rdGxDdoj4d+97PiwbUJcZbjMqZb0V4FbNvWvNRLCZ43qr2lqknyPXfZx5TQhNE4n2rSQFBpm"
    "1j/u+EZBdvG6Tb7NFOI8T7SmP6Dwwz5u7GgqBePZd3/yQyhJveif3eFKIdHKbuE5UGBWTnt6"
    "W5PCJ3f9m600CpeTC3Om9wgwnXr287ikP0g5/3BULVMAIqgxWjVEAJ3E9qJIyXmwc9USD5kI"
    "8NypP6F3hgAu/kayf/3m45byvujfDXxsuKF2JPsGH2cEurpEMB9Sspa0HjvJuNolnZQlfNT/"
    "dSbqmDQfP4Pyu+J/8HDQDenUMx50LyztfJMhyRvbVa5qQZL7ybB3sGAXD5k99JknJfzIrAqN"
    "yZ/JQ7meTEP6CBdflvvN9HzDRYCiqf4cSV/r1rtiQc0VLh75Pw84EijhSaHwvdEeLkYsn26f"
    "s44L+amCRYbaXDxWjR87I8P9zwcNok6nGV9ImFV2STk1kahXbr4uV0FibvjSaNNcEopbn5i3"
    "JpJYfDAw9mckCavD16XPniDh6jAlL8+bhP2a0R32+0gE7/RUSXaQrFPQNjiwg8TgRlrtS0sS"
    "fsJO0ydbSHzVEVObNpNQLZEpct5EoqjMY5whebcUSRWukMzbvhtsHrUgYcFrO2loQ6JcM2jK"
    "L3vJfezsXmqOK4lzGjWKD71IDC3bZPnkGIne1roujdMk1G+m2nbESfj42iyyO4PE/wJm+O9T"
)

_SZ_PWREL_PAYLOAD_B64 = (
    "UkJDRgEAeJztlU1oXFUUx8+5976P+XrzJjNJpu0Muakxjf1IR1vTIYl6p7ES69dUugjSyEP8"
    "KNXFqFGGEsp5SS1ZVBikQkWRt3ARXA2iIWAXt6WLIl3MIpRBXDxBMGAXsxwExfcUMRt3XeYP"
    "F/7nXu4593fO4poAYEcLGPyt2J+/8Kvx8dTBp2KP/2zDZybA7/8GAkDCf8okcw+fF2ue28NZ"
    "1/pR77H5IqTm8UBLXAG3g1PS/BYKij2pzTbkNY4Bd4EHeJacOntFp7fxVJB43p+smPd0qct9"
    "mXt65ble4nTt0LrxvSyWVt+qZDZq1Qnrt7C8tbrcybJbqmpbo6OHL3/UcgdO1or2H3Lk7uoH"
    "rvPNzWO2+V1YOLcyV7d+UIU+znlQhZzHWzBU5xdVboG9DKklfNQzt9Q+4u96zpY/Xbfuq/I6"
    "X1LObayG5j3aW+VveGnyJwOjDYMt9iIlJD4kxSXI3sHHPfMGDLXYaW33oST5AiV6sJdYBbiE"
    "pGJrMBjwy5TvsNeUs41zoX3cf6RhbKjiBH87zNz2Z9rWn1pOiOGfI9JnG4nJ2nhXfO7ll1Ze"
    "aCemauOb4lM5MLtyqmGbN0c2+ftB5pp/tGF8qXPbeCIwrlLGxQEABQPE12BY8Sbk6jFXEx8L"
    "zC6V2vwiZftYk7aNo1Jc0a7LTipboOzxZZUNcUZaP9E+xd9U6SZOesY6FDz2DNmAZeKvU6qO"
    "85p7kJRYBCYBPSiR4eK4Mrsw4okvaLAXwWU28YnQEv7+hvhE5ZvsTJA86x9qGRt6aJsthqll"
    "/2jPuKWH+2wxSL3jH2kZX6vB6+ylIDHm76+IS9rZxGOh8RXlezitjTXISEzHxQoggqijEVw+"
    "YOcoHeC0svowqsRVikiv60QVD4ARQIFYHZJREIprkK+zeW27MfEyZTtY1WYHiiFboGQFx5Ro"
    "gkN4mASBo1DGXKBhAqLJzpJVwYPKvAPlMJpc3EyVXMAjoXGD9lT4hZj0hLR+oXKbf6idLs54"
    "1v24ze/p+CQw71LR5a/q6M4ZL3pjto1TOmpqLsTjJBpgKnBBxMVMiCobGorEYVe72tUDkHpA"
    "Oeh/csod3t3h7R0++hPhLy+G5lM="
)

_ZFP_PWREL_PAYLOAD_B64 = (
    "UkJDRgEAeJztVFtoXFUUXfvce+eRmXQmj0mmTZrcFJP0EeIltdHaWA95tEFLiVChQSgDSohS"
    "ZVqLDkXrKVYoxcDQD01KhKv+9KPgSH/q4+NSilZQGfyQKCiDSg2lytCvUiq6jjU0P/75I2TD"
    "cA5rzjl77bXXvjEACf6g8HfY/exzv3pzw7d3Z7m/LXdxfXfBQvLeWbiAj3vR8nH3o726sm+0"
    "o/zDqd9V65nCM5huKWV0zjmnpk6bl/FLvtCGT9xJV/+G71G+3wzg06SfhKeWRR/GDOptJocb"
    "bugiI7egH8YwKmmTwhUVKizgNHQPuhDETQxvSkHwJCYRNWEdKo5xcAUh0Is8ohhiCMQA91li"
    "o+PFbx0pHYV+2zki88d1Cscy2QQ+VGlEh/EYzudqgs8c3zFfYytqvehDKVFTWJSamEMYRKEZ"
    "6zHpElrClGA7Ib8BLZhVhI4jK9hIKPKQRUEIjaMG7gcBx5IDoS5UQVaEBGnqRij7x1xy/MLw"
    "hs3lsdcXnIGnwmO4mC41aVddV9lpcwoj2TCPnHPJjc7hJupdJsCBGBM/IXkV7cFR1NeZdjzg"
    "+B4+QF50H3YjSJhGfGlJPI15RDlsQsU1cbgSCh7EQUQpNKOoqNcrVq/11Eu7ZFYB9Wq1et28"
    "fqT6xlcjZ2N6Tj2Oyb1owLVkWXBWxqEn0IgwbRRmVBGmxNt+Hh7qLuuKSQDmSCNM0SRG8cEz"
    "LNVspK/YMsGs0Ej7qQya6J7QIXTVemvAQtZaNeu3WUvCMiFHWI5WS8aJ3sb2iS29L3QU/zz5"
    "kxrZWduFd+OTGT0qQzK1w7yGzoZCHN9J3tMFCl1uNjtxw+H9L3BJRdtIop4wm3BHtOBZXJWo"
    "nezrrsmjU8h3Fw6KbqRlqso0YxFaoQcJ0XFsRlFMBvsQKWRoAS4BWH2apbLDl2tDH3m3umfE"
    "nJAJYEuURMUri7lGH0T9PKPjfKsgRWCCGWuN1KuqWPtbfMZ0W71izF+0ht1vR8qKE1lxqivi"
    "mCQh394pWShvIY+S+Favh6w46ZUpLqzMMZbfH3lvvL/tx+Zg28lX5U53OIjn3eWYvog+oZm2"
    "Y9ELk2iSJdE7cAiVBpY9oGoOXrRdyXMUAo+JOzkFeIRdidJos+K4FIeJe5iY4jSApSocsI1q"
    "scPn0ExVGCFx1hInF23lDf75ZABLsz9/7k5nz7v+PMZUNRWN4RtUWk0HW8PRfweRUKGXUHeM"
    "T0EoTj9bQ0cP2amxD1KowPrWFhpYQlttvhzFKbjYwHmkOMOWUBsP0PcO/47AGcxajhxSh3hk"
    "e7fHLinbFQdrsRZrsRb/19D/0RvmX970V+2zq/aJVXv7gf8LrDP0Dw=="
)

_CHECKPOINT_B64 = (
    "UlBDSzAwMDFEAgAAAAAAAHsiZW50cmllcyI6IHsieCI6IHsia2luZCI6ICJibG9iIiwgInNo"
    "YXBlIjogWzUxMl0sICJkdHlwZSI6ICI8ZjgiLCAiY29tcHJlc3NvciI6ICJzeiIsICJtZXRh"
    "IjogeyJlcnJvcl9ib3VuZCI6ICJwd19yZWw9MC4wMDAxIiwgInByZWRpY3RvciI6ICJsb3Jl"
    "bnpvIiwgImZvcm1hdF92ZXJzaW9uIjogMSwgInNjaGVtZSI6ICJwd19yZWwifSwgIm5ieXRl"
    "cyI6IDgzMCwgIm9mZnNldCI6IDB9LCAicCI6IHsia2luZCI6ICJibG9iIiwgInNoYXBlIjog"
    "WzUxMl0sICJkdHlwZSI6ICI8ZjgiLCAiY29tcHJlc3NvciI6ICJ6bGliIiwgIm1ldGEiOiB7"
    "ImxldmVsIjogNn0sICJuYnl0ZXMiOiAzODg4LCAib2Zmc2V0IjogODMwfSwgIml0ZXJhdGlv"
    "biI6IHsia2luZCI6ICJpbnQiLCAidmFsdWUiOiA0Mn0sICJyaG8iOiB7ImtpbmQiOiAiZmxv"
    "YXQiLCAidmFsdWUiOiAwLjEyNX0sICJyYXciOiB7ImtpbmQiOiAiYXJyYXkiLCAic2hhcGUi"
    "OiBbMTJdLCAiZHR5cGUiOiAiPGk0IiwgIm5ieXRlcyI6IDQ4LCAib2Zmc2V0IjogNDcxOH19"
    "LCAibWV0YSI6IHsia2luZCI6ICJkeW5hbWljIiwgInRhZyI6IHsiaXRlcmF0aW9uIjogNDJ9"
    "fX1SQkNGAQB4nO2VTWhcVRTHz7n3vo/5evMmM0mm7Qy5qTGN/UhHW9MhiXqnsRLr11S6CNLI"
    "Q/wo1cWoUYYSynlJLVlUGKRCRZG3cBFcDaIhYBe3pYsiXcwilEFcPEEwYBezHATF9xQxG3dd"
    "5g8X/ude7jn3d87imgBgRwsY/K3Yn7/wq/Hx1MGnYo//bMNnJsDv/wYCQMJ/yiRzD58Xa57b"
    "w1nX+lHvsfkipObxQEtcAbeDU9L8FgqKPanNNuQ1jgF3gQd4lpw6e0Wnt/FUkHjen6yY93Sp"
    "y32Ze3rluV7idO3QuvG9LJZW36pkNmrVCeu3sLy1utzJsluqalujo4cvf9RyB07WivYfcuTu"
    "6geu883NY7b5XVg4tzJXt35QhT7OeVCFnMdbMFTnF1Vugb0MqSV81DO31D7i73rOlj9dt+6r"
    "8jpfUs5trIbmPdpb5W94afInA6MNgy32IiUkPiTFJcjewcc98wYMtdhpbfehJPkCJXqwl1gF"
    "uISkYmswGPDLlO+w15SzjXOhfdx/pGFsqOIEfzvM3PZn2tafWk6I4Z8j0mcbicnaeFd87uWX"
    "Vl5oJ6Zq45viUzkwu3KqYZs3Rzb5+0Hmmn+0YXypc9t4IjCuUsbFAQAFA8TXYFjxJuTqMVcT"
    "HwvMLpXa/CJl+1iTto2jUlzRrstOKlug7PFllQ1xRlo/0T7F31TpJk56xjoUPPYM2YBl4q9T"
    "qo7zmnuQlFgEJgE9KJHh4rgyuzDiiS9osBfBZTbxidAS/v6G+ETlm+xMkDzrH2oZG3pomy2G"
    "qWX/aM+4pYf7bDFIveMfaRlfq8Hr7KUgMebvr4hL2tnEY6HxFeV7OK2NNchITMfFCiCCqKMR"
    "XD5g5ygd4LSy+jCqxFWKSK/rRBUPgBFAgVgdklEQimuQr7N5bbsx8TJlO1jVZgeKIVugZAXH"
    "lGiCQ3iYBIGjUMZcoGECosnOklXBg8q8A+UwmlzcTJVcwCOhcYP2VPiFmPSEtH6hcpt/qJ0u"
    "znjW/bjN7+n4JDDvUtHlr+rozhkvemO2jVM6amouxOMkGmAqcEHExUyIKhsaisRhV7va1QOQ"
    "ekA56H9yyh3e3eHtHT76E+EvL4bmU3icPZd5VE1d3MfvkEehVChKs5SklNmD70E0UJREoyK9"
    "QoNCgyIpRYVGSiopKaJJEmlA9VAyxKMSSaTScLv33OHce+u9a73ves4/33X23mvtc9b+fT/f"
    "36bR/u/R83oryKnlQ/F5jU54uAB8nR2E4RoKbfEJ0hbjFFKKnPYfvSPEzLcGqaucRei2nhpu"
    "NU2MN/tqn1g8FENNw/j3Z+cJXDSIfpInnkA2/dg6x4xJHCpXPP5hLo0YqUn4k+NBI6ScGkj/"
    "AhrRkFzspzVII/rzaOuSFtGJnLrS7fkH6URam3nphiw68fRrV67ZBzqR2PT6UrYUg5BxU9Fc"
    "a8ogvFeGmtNdGMT3LtqmvrMM4qvS2az2WwyisSBuY2M9g7DIVjr0oItB3CNa7sSyGESpKpOz"
    "nckkIl95JAnkmURImIn2JRUmcdr4QPIMTSZx1ni7dogWkzDS1bDtVGcSsUV6PavnMolJqbYX"
    "2bJMItHimMb8SQaxtHHa0po/DKKdaLRM+STZl3f8ZcVTBpGgTY0vy2YQtMlymUWnGYSK8rBy"
    "saPk+z65szpNGMQr+rf5bX8xCP7EvPqCz3Qib8+9K1EFdGK9+v6H5wPphJPFh+q36+iEta1L"
    "8HkmnUh4Fkm1NNGILKcPR15doBFmRhbifEsaEX3Y7E3MVBqhb+J9xyRmEo3ihnNTRBNIDpbu"
    "/uYzgSRz+xClbjFEzcN0mpUY96QK3rErRChdZNJgqS4Cf1eUwPG8ENnKQY/ChinI03N1ptlT"
    "SOoqUnWqFmCBzizGC00BNOLyErJi+DATpKZjlIepNZFc4R4emnSt1+k1cGH4W+rGLCMuBMyB"
    "KoVMEs3ymYH+M0gE0m++CjvDQWL8iuKzJBsJYVkfm3zZkF4uuJU6NI6IijzK6Og4sn12zf84"
    "xsK2GZ/iGkNYaPe+P7xhKgs+WcFDJ9PHwFFaNS9v6RiYr1Ues9JH0Xn/912L7hHI7v5+NW/x"
    "CG7KFS51iB6GxT5d44LBP/htYre80/kPrvTYlBh0DKHkWmFry/4hmJgOuw/zB/FeI/BL6fVB"
    "aJUFW6zeNoiA08dxdeogCMfbI91vByAn6FCZXTCA/7cBzVimzdAydADhybe4pkEDSIh4sbg3"
    "YgCWRxpc114dgKviVb251QNYHmtsYzswgJszMvoqFgziTsLTwOlHB5EhPqmrXDsIwZgiO1lt"
    "CMY7ej6tihnCjB3dtHLhEL6e2ipXEvoHu1QGN7czh/GWnPu6Nm0YLw/JsmSXjUDKPufQ7s8j"
    "mFWhfUn//CiCX1/7NE19DGalhnkfwsaQaGtkYvptDBbiYM/fZiwoanuVVBaz8On1vjUu88Yh"
    "bhgUpcWMQ8pJQaDDH4fLqLJ97WE2nPU9oxZ8YyOEeyZYbjcHtxK1ale1cHC5SuuBkxmJvmrL"
    "yyY1JP6W/1FzciUXWhfH/+17wEX8eZmelYt4oA1d9dTP5aFFvSj/hAofj8snHncl8uE+tq98"
    "rrQA9uIlDUNhAljJTd07Z0yAmrOnLPd4UOi//nTk+FsKxIoVm5etF+Kpn4jpWCDEX5azWu/L"
    "iaBV5LZiMkCE1IM7B5TaRag4avrihYkYX92lf3fEifFPjOjDol4xjsrbhFxcPoH8iEc27ZET"
    "4Cps2d/bMoHiimTvJMVJXPYMePti1ySO+/W8dLkyCcrM05xongTb9ZHBXuEkpnv0KjbPphHv"
    "7cMOH1lEI0r2jH279DeNUDktd99wG40I7bONIfZKuFR/L7VpP42Q844IqTtMI95uf26+2J9G"
    "zL+wJ0YmkEZEDKUscZPoqm6ZjCXHaMQSWlBi+FEaoVsls3r3QRrRu6FzWo0zjUgxK/v8bAeN"
    "iAvTqj64kUZ4vfsp/WwpjWDZFTt8VKMR9ptXH6iWphGc0ec6VO8kglWMa1xKJmHkGZNXFzKJ"
    "xbq+w9swiVELg5SF9El43co4EFor4aubbWdA6AT01g7IrTedgH1hfvLUfjFyNP0cGeliyCxc"
    "n+RmIUbRr8kkG1KE1xtUH07JEeE+oldVWYjQbpuhcX1UiCPzH8/rSxHirmOV4z+rhbhWYXHq"
    "bBf1nw+cKvxVt6pTSNh/9GndMwEuP1feMugmgOa17RGCCT4+BVj/XJDNR4xWXEgu+Cht6ykr"
    "6OFhbp+Dk3ckDwtNw/xUdXl4c9tzBquZCylNF6v5vlxMZDrrvZnNRaSvzdGVknrbGLE85dz/"
    "kDCEUUXvLBIZf532PNPAgbfrxaJzgRzcvj30Q1mPA+By2f5uNprsBAOxaWx8nigOL7ZjQ/f2"
    "P/4sBTa0M9oaA9vHYXX+4QnbjHEMWpg45h8Yx9cFNnqxS8dRdMLaS54+DqPtnw7YfWShIu3k"
    "EneJb3zKgy5aXmChK3YqT9WbhU3hlTm921k41WfpeXu5hE9Pvrf4aLJQ0uo3e708C9Ouh+sq"
    "SbEQUbI+iy8cQ4dDX/t33hiI7k3dLRK1lc25XCYZD37QdOUCkwV9DyvnrTNZWOv2y7JLnQUD"
    "M4Vbq01ZKCMy8rdbsvA5wTmN6clCXgrrjXkkC73xPq30PBYMOXyzuf+w8KDezdifxUJlq++3"
    "P/PHcSnceLb/tnHIHXw3ozNsHBtW7b0hUzqOafJ/Nn/pH0fd55cbjLTYWG1ZmNvpwkZV29dj"
    "TzLYKArJLi/sZMPwbV9c+HwOHp66tEvOnYM1R9pKTPM5iDBsf1A3xEHU/JSuhGUk9sytdfAL"
    "I9Hm/pizppHE9eNX7Rrkudj3bPrYF2cusuestnAr4MJs7e5BFTYXN25pJ/Vv4MFumQKRfpGH"
    "5ZmqtlM+8aCXjDS6Fh9/L4k74nmED6Z22Ruph5I+g6lxolrMx4WO499dtwigRj8Z3BwnwKxz"
    "W1Lb3wowksfPdJ1NIb7dV4FwoNCS6nXLMY1CaGrj5gvtFIxiFZc/kBeihiGlVGwlRL8UQR2M"
    "FEI2TNv32SMh0lLSYzMHhYjcPJ3bryJC1V8E86Kk/nOP2RT4BIrws/xc/JnrIrh/3zL3fp0I"
    "gy7DxwZ6RXjhkRyrwxD/54PO+Ki7nqvECPi+N3evtRgpXRHGuu5iyE9f6fzSTwzfeIKxMkyM"
    "iwcD209EixHnomMXLeFW+KXrzV6XxFC/mmytLtHDeXcfl14UY50D+6Z+lERbInbGh4rh0KD2"
    "tN9HjI9zFM6Yu4lxPHJ66+NtYqT/u+GQzUoJ92wLUpXUxYjUvyyvyxRj9LW9OOGnCFmpYV1e"
    "L0VYqaEc1Jgrwtz70R0vwkXoDLq95pSDCFNfBgwxl4iwb+W8HaF0EVQKs2qpD0KsOyR/NjdP"
    "iKoou/uXA4XQ3JW68DshxLfF4aGVM4SwuTW1w/hfClsj1oh8cig0N+TMSTpEQUOhsrrGmMLp"
    "b/rvFLkCLM3SOlX+RIB7i6OZDRECVJWZvXKXnOM8xsulZTICvLM8dP5zKx98xhaSlOSEb8Zs"
    "P0MHPj5v9sy4IckPK23FusPfJHlSqfm4Io+H2o2DX64f5qEnrGYUJjzINf1RqONzUXph74O1"
    "9VyEW4X7tV7kwiBSdmHqbi7OsNVfFGtxEfdl3NJ0lEQ/d9/jdc9IrGrvk/51iURr1SHlrR4k"
    "fO6U5ASuIHFlIME0ajqJiLevtON/cHDNuDM6q4aD1fbWC1vTOZChzQ7XD+bAx+FCUe1eDvTW"
    "7fTP+ZuDhCV0w381Oaiec/e9rzQHySv1h/3H2ZhWZZ768ysbLsLXgR9a2Qh0WF+LWjYcPK/8"
    "bVTOhjgna+3NQjYOJvndSM9lo8d65yelLDZePaocUspkw8Bn+FSaRMnOqPor2Wyo34i+NpnH"
    "RljHvqiue2ws60+qVH3ERuoyaaXK52xw+Krm2e/ZCGbaVLz6wYbmkZSrBjw2LnVYSpXM4KA0"
    "v4RltYCDzU3MrYPrOdjkLtd7ypGDZ86biv+clPjaa2uufhoHbTvZXSqPOIh8VJVb3MHBvAL3"
    "0FdiDrxeLFrqpEOiydN4wMyKhPEPJZOAAPI/H5huPcs1lnCgaYrprAQWicKF71Ub1biIKRw+"
    "U2fFhdvhQ8c8grlQ8VDmJNzmIuv3nmGDj1w0rc9cpibFg2N43w3LZTwonFOdlbqfB9vFO9L7"
    "Enk4lfnEU62ehxVeN38tGOPht//Xrh51PrYNbHReZc3H99jkH3Kn+BC0b/W2ucPH1sUfDnS3"
    "8/GjrLDzFk2AifiGYxcXC5DWX30idLcA+V/D+11PC1B5MCBG47YAdc/1e4paBLANj9z5hyXA"
    "hq875rybQ4FT5GZnvprCUAepssGRgkpidUh+MIUTE1SQr4QzZ2guC+LKJJwZ/3VtpIXC3u0n"
    "aAk/KVgbB193FlGQM1d5sVNBCKfuataBBUI4WNc/SVghRMLR5q4mMyEWdWsZy9oJ4ZJZ+sjR"
    "VYglp7Uzi7yEMM8/rjfhI8QBj/6mXRL/nVhDyN47KUQ1jt2WDhZiZMFNt6NBQsn/Xp3XdVwI"
    "v+qkNkd/ybxSVOyItxCTBvUOOR5CKK3RsQ3aI+Hfvez4sG1CXGW4zKmW9FeBWzb1rzUSwmeN"
    "6q9papJ8j132ceU0ITROJ9q0kBQaZtY/7vhGQXbxuk2+zRTiPE+0pj+g8MM+buxoKgXj2Xd/"
    "8kMoSb3on93hSiHRym7hOVBgVk57eluTwid3/ZutNAqXkwtzpvcIMJ169vO4pD9IOf9wVC1T"
    "ACKoMVo1RACdxPaiSMl5sHPVEg+ZCPDcqT+hd4YALv5Gsn/95uOW8r7o3w18bLihdiT7Bh9n"
    "BLq6RDAfUrKWtB47ybjaJZ2UJXzU/3Um6pg0Hz+D8rvif/Bw0A3p1DMedC8s7XyTIckb21Wu"
    "akGS+8mwd7BgFw+ZPfSZJyX8yKwKjcmfyUO5nkxD+ggXX5b7zfR8w0WAoqn+HElf69a7YkHN"
    "FS4e+T8POBIo4Umh8L3RHi5GLJ9un7OOC/mpgkWG2lw8Vo0fOyPD/c8HDaJOpxlfSJhVdkk5"
    "NZGoV26+LldBYm740mjTXBKKW5+YtyaSWHwwMPZnJAmrw9elz54g4eowJS/Pm4T9mtEd9vtI"
    "BO/0VEl2kKxT0DY4sIPE4EZa7UtLEn7CTtMnW0h81RFTmzaTUC2RKXLeRKKozGOcIXm3FEkV"
    "rpDM274bbB61IGHBaztpaEOiXDNoyi97yX3s7F5qjiuJcxo1ig+9SAwt22T55BiJ3ta6Lo3T"
    "JNRvptp2xEn4+NossjuDxP8CZvjvUwAAAAABAAAAAgAAAAMAAAAEAAAABQAAAAYAAAAHAAAA"
    "CAAAAAkAAAAKAAAACwAAAA=="
)

#: SHA-256 of the reconstructions the seed-era SZ reader produced for
#: ``_SMOOTH`` (formerly pinned as the raw reconstruction bytes).
_SZ_PWREL_RECON_SHA256 = (
    "71bfc42bfd2928608742710aca31bd5e03f256a30d818e7ec1f9e98bb58ae1de"
)

_SZ_ABS_RECON_SHA256 = (
    "0d9c1c0508c151ffcd6404f2133f9b88751ba2b18bd80faa43168b0317b931af"
)

_ZFP_ABS_RECON_SHA256 = (
    "68fa79085c762b45b3b5dcdb51bff93928cedcaa605094a41d6c5277154a2227"
)

_ZFP_REL_RECON_SHA256 = (
    "de435937894f7e6c250eb1e4f1a99a9acb91bfe4d5af962cfe1a92266d437082"
)

_ZFP_PWREL_RECON_SHA256 = (
    "6ebdc803129a46e12f3043a0f10360eb8d41017b07e3054a198280de9bba9e39"
)


def _payload(encoded: str) -> bytes:
    return base64.b64decode(encoded)


_SMOOTH = np.frombuffer(_payload(_SMOOTH_B64), dtype=np.float64)


def _blob(encoded: str, compressor: str, meta: dict) -> CompressedBlob:
    return CompressedBlob(
        payload=_payload(encoded),
        shape=_SMOOTH.shape,
        dtype=_SMOOTH.dtype.str,
        compressor=compressor,
        meta=meta,
    )


def _rejected(compressor, blob, version):
    with pytest.raises(
        ValueError, match=f"unsupported payload format version {version}$"
    ):
        compressor.decompress(blob)


class TestFrozenV1Rejected:
    def test_zlib_v1_rejected(self):
        blob = _blob(_ZLIB_PAYLOAD_B64, "zlib", {"level": 6})
        assert blob.format_version == 0  # seed lossless blobs carry no version
        _rejected(ZlibCompressor(), blob, 0)

    def test_sz_v1_rejected(self):
        meta = {
            "error_bound": "pw_rel=0.0001",
            "predictor": "lorenzo",
            "format_version": 1,
            "scheme": "pw_rel",
        }
        _rejected(SZCompressor(1e-4), _blob(_SZ_PWREL_PAYLOAD_B64, "sz", meta), 1)

    def test_zfp_v1_rejected(self):
        meta = {
            "error_bound": "pw_rel=0.0001",
            "block_size": 64,
            "format_version": 1,
            "scheme": "pw_rel",
        }
        _rejected(ZFPCompressor(1e-4), _blob(_ZFP_PWREL_PAYLOAD_B64, "zfp", meta), 1)


_V2_PINS = {
    "sz-pw_rel": (SZCompressor, ErrorBound.pointwise_relative(1e-4), "pw_rel",
                  _SZ_PWREL_RECON_SHA256),
    "sz-abs": (SZCompressor, ErrorBound("abs", 1e-5), "abs", _SZ_ABS_RECON_SHA256),
    "zfp-pw_rel": (ZFPCompressor, ErrorBound.pointwise_relative(1e-4), "pw_rel",
                   _ZFP_PWREL_RECON_SHA256),
    "zfp-abs": (ZFPCompressor, ErrorBound("abs", 1e-5), "zfp", _ZFP_ABS_RECON_SHA256),
    "zfp-rel": (ZFPCompressor, ErrorBound("rel", 1e-4), "zfp",
                _ZFP_REL_RECON_SHA256),
}


class TestV2KeepsSeedReconstructions:
    @pytest.mark.parametrize("case", sorted(_V2_PINS))
    def test_v2_reconstruction_matches_seed(self, case):
        # Same input through today's writer: a different container around the
        # same quantization codes, so the reconstruction the v1 reader used
        # to produce is reproduced bit for bit.
        cls, bound, scheme, recon_sha256 = _V2_PINS[case]
        compressor = cls(bound)
        v2 = compressor.compress(_SMOOTH)
        assert v2.format_version == SHARDED_FORMAT_VERSION
        assert v2.meta["scheme"] == scheme
        recon = compressor.decompress(v2)
        assert hashlib.sha256(recon.tobytes()).hexdigest() == recon_sha256


class TestFrozenSerializedCheckpoint:
    def test_seed_checkpoint_deserializes(self):
        parsed = deserialize_checkpoint(_payload(_CHECKPOINT_B64))
        assert parsed.meta["kind"] == "dynamic"
        assert parsed.entries["iteration"] == 42
        assert parsed.entries["rho"] == 0.125
        assert np.array_equal(parsed.entries["raw"], np.arange(12, dtype=np.int32))

    def test_seed_checkpoint_blobs_are_rejected(self):
        """The container parses; the blobs inside name formats no reader has."""
        parsed = deserialize_checkpoint(_payload(_CHECKPOINT_B64))
        x_blob = parsed.entries["x"]
        assert x_blob.format_version == 1
        _rejected(SZCompressor(1e-4), x_blob, 1)
        p_blob = parsed.entries["p"]
        assert p_blob.format_version == 0
        _rejected(ZlibCompressor(), p_blob, 0)
